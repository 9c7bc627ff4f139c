"""Containment-as-a-service: the asyncio JSON-over-HTTP server.

The paper's decision procedure amortizes beautifully — prepared
encodings, obligation verdicts, and compiled simulation targets are all
content-addressed — but only if checks outlive a process.
:class:`ContainmentService` is the long-running home for them: an
asyncio HTTP server whose engine sits on the persistent cross-process
tier (:class:`repro.pipeline.persist.TieredStore`), so a restarted
server answers its first requests warm from disk, and whose concurrent
``/v1/contain`` requests are micro-batched
(:class:`repro.service.batching.MicroBatcher`) into the engine's
``contains_many`` batch path.

Endpoints (bodies and responses are JSON; schemas are either a
``{"rel": ["attr", ...]}`` object or the CLI's ``"r:a,b;s:k"`` string):

=======  =============  ====================================================
method   path           body → response
=======  =============  ====================================================
POST     /v1/contain    ``{sup, sub, schema, timeout_s?}`` →
                        ``{"verdict": true|false|"undecided"}``
POST     /v1/equiv      ``{q1, q2, schema, weak?, timeout_s?}``
                        → ``{"verdict": ...}``
POST     /v1/matrix     ``{queries, schema, timeout_s?}`` →
                        ``{"matrix": [[true|false|null|"undecided", ...]]}``
POST     /v1/lint       ``{query | queries, schema, select?, ignore?}`` →
                        the CLI's JSON lint report shape
POST     /v1/classify   ``{query, views: {name: text}, schema,
                        timeout_s?}`` →
                        ``{"classifications": {name: "equivalent" |
                        "subsuming" | "contained" | "irrelevant"}}``
POST     /v1/flush      ``{}`` → ``{"flushed": n}`` (persist write-backs)
GET      /v1/stats      service counters + engine stats + store accounting
GET      /healthz       ``{"ok": true}``
=======  =============  ====================================================

Status codes: 200 for every decided request (including ``"undecided"``
timeouts), 400 for malformed requests, 404 unknown path, 413 oversized
body, 422 for domain errors (incomparable queries, unsupported
fragment, a query that does not parse), 500 for unexpected failures.

Deadline semantics: a request's ``timeout_s`` rides the existing
timeout machinery — with ``jobs >= 2`` the engine's pool workers
enforce it by ``SIGALRM``; the service additionally bounds the
*response* with an asyncio deadline (``timeout_s`` plus the batching
window plus a grace), so a client always hears ``"undecided"`` within a
bounded wall time even when in-process enforcement is unavailable.
Batching: requests may only share an engine batch when their schema and
``timeout_s`` agree, so that pair is the batch group key.  With
``jobs=1`` a request to an idle engine is dispatched on the next loop
turn; one that arrives while a batch runs waits for that batch, at most
the window.  With ``jobs >= 2`` an idle engine takes a group once it
holds ``jobs`` requests, so they share the pool's workers, and a lone
request waits at most the window for them (see :class:`MicroBatcher`).
Body fields the endpoint does not know are ignored.
"""

import asyncio
import json
import threading
from concurrent.futures import ThreadPoolExecutor
from time import monotonic

from repro.errors import ReproError
from repro.engine import (
    ContainmentEngine,
    ParallelContainmentEngine,
    UNDECIDED,
)
from repro.engine.parallel import Undecided
from repro.service.batching import MicroBatcher

__all__ = ["ContainmentService", "BackgroundService", "DEFAULT_PORT"]

DEFAULT_PORT = 8977

#: Upper bound on request bodies: queries are text, not data.
MAX_BODY_BYTES = 8 * 1024 * 1024


class _HttpError(Exception):
    def __init__(self, status, message):
        super().__init__(message)
        self.status = status
        self.message = message


def _parse_schema_payload(value):
    """A request's schema field → ``{relation: (attr, ...)}``."""
    from repro.cli import _parse_schema

    if isinstance(value, str):
        return _parse_schema(value)
    if isinstance(value, dict) and value:
        schema = {}
        for name, attrs in value.items():
            if not isinstance(name, str) or not isinstance(
                attrs, (list, tuple)
            ):
                raise _HttpError(400, "schema must map names to attr lists")
            schema[name] = tuple(str(a) for a in attrs)
        return schema
    raise _HttpError(400, "missing or invalid 'schema'")


def _verdict_payload(verdict):
    """An engine verdict → its JSON value."""
    if isinstance(verdict, Undecided):
        return "undecided"
    if isinstance(verdict, Exception):
        return {
            "error": {
                "type": type(verdict).__name__,
                "message": str(verdict),
            }
        }
    return verdict  # True / False / None (incomparable matrix cell)


class ContainmentService:
    """The asyncio containment service.

    :param host, port: bind address (``port=0`` = ephemeral; the bound
        port is on :attr:`port` after :meth:`start`).
    :param store_path: SQLite path for the persistent tier; the engine
        (and its pool workers, with ``jobs >= 2``) warm-start from it
        and write back to it.  None = memory-only caching.
    :param jobs: engine worker processes (1 = in-process decisions).
    :param timeout_s: default per-check deadline applied when a request
        does not send its own ``timeout_s``.
    :param batch_window_s, max_batch: micro-batching knobs (see
        :class:`MicroBatcher`).
    :param deadline_grace_s: slack added to a request's ``timeout_s``
        before the service gives up waiting and answers
        ``"undecided"``.
    :param default_schema: schema used by requests that omit one.
    :param preload: warm the memory tier from disk at startup.
    :param constraints: tuple of
        :class:`repro.constraints.InclusionDependency` declarations
        every check served holds under (the engine default; the chase
        saturates sub-side witnesses before each simulation search).
    """

    def __init__(self, host="127.0.0.1", port=DEFAULT_PORT, store_path=None,
                 jobs=1, timeout_s=None, batch_window_s=0.002, max_batch=64,
                 deadline_grace_s=1.0, default_schema=None, preload=False,
                 constraints=()):
        self.host = host
        self.port = port
        self._store_path = store_path
        constraints = tuple(constraints)
        # A long-lived server, like a pool worker, keeps no per-check
        # trace trees: nothing reads them, and they grow with every check.
        self._engine = ParallelContainmentEngine(
            jobs=jobs, timeout_s=timeout_s, store_path=store_path,
            constraints=constraints,
            engine=ContainmentEngine(
                store_path=store_path, constraints=constraints,
                retain_trace=False,
            ),
        )
        self._default_timeout_s = timeout_s
        self._batch_window_s = batch_window_s
        self._deadline_grace_s = deadline_grace_s
        self._default_schema = default_schema
        # One worker thread serializes every engine call: the engine's
        # own parallelism lives in its process pool, and a single entry
        # thread keeps the store and stats free of data races.
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-engine"
        )
        self._batcher = MicroBatcher(
            self._decide_batch, executor=self._executor,
            window_s=batch_window_s, max_batch=max_batch,
            workers=self._engine.jobs,
        )
        self._server = None
        self._requests = {}
        self._deadline_misses = 0
        self._started_at = None
        self.preloaded = 0
        if preload:
            self.preloaded = self._preload()

    # -- engine plumbing (runs on the executor thread) -----------------

    def engine(self):
        """The underlying :class:`ParallelContainmentEngine`."""
        return self._engine

    def store(self):
        """The engine's artifact store (tiered when *store_path* set)."""
        return self._engine.engine().store()

    def _preload(self):
        store = self.store()
        preload = getattr(store, "preload", None)
        return preload() if preload is not None else 0

    def _flush(self):
        store = self.store()
        flush = getattr(store, "flush", None)
        return flush() if flush is not None else 0

    def _decide_batch(self, group, pairs):
        """One micro-batch → one ``contains_many`` (executor thread).

        A pair whose error ``contains_many`` does not capture (a
        :class:`repro.errors.ParseError`, say) fails only its own
        request: the batch is decided again pair by pair, each pair as a
        batch of one, so under ``jobs >= 2`` it still runs in the worker
        pool under its per-check deadline.
        """
        schema_items, timeout_s = group
        schema = dict(schema_items)
        knobs = dict(on_error="capture", timeout_s=timeout_s)
        try:
            verdicts = self._engine.contains_many(pairs, schema, **knobs)
        except ReproError:
            verdicts = []
            for pair in pairs:
                try:
                    verdicts.extend(
                        self._engine.contains_many([pair], schema, **knobs)
                    )
                except ReproError as exc:
                    verdicts.append(exc)
        self._flush()
        return verdicts

    # -- request handling ----------------------------------------------

    def _tally(self, endpoint):
        self._requests[endpoint] = self._requests.get(endpoint, 0) + 1

    def _schema_of(self, body):
        value = body.get("schema")
        if value is None:
            if self._default_schema is None:
                raise _HttpError(
                    400, "no 'schema' in request and no server default"
                )
            return self._default_schema
        return _parse_schema_payload(value)

    @staticmethod
    def _query_field(body, name):
        value = body.get(name)
        if not isinstance(value, str) or not value.strip():
            raise _HttpError(400, "missing or invalid %r" % (name,))
        return value

    def _timeout_of(self, body):
        timeout_s = body.get("timeout_s", self._default_timeout_s)
        if timeout_s is not None and not isinstance(timeout_s, (int, float)):
            raise _HttpError(400, "'timeout_s' must be a number")
        return timeout_s

    async def _with_deadline(self, awaitable, timeout_s):
        """Bound the response wall time; ``UNDECIDED`` on overrun.

        The work itself is shielded — a batch keeps running and its
        artifacts (and the other requests sharing it) still land; only
        this response stops waiting.
        """
        task = asyncio.ensure_future(awaitable)
        if timeout_s is None:
            return await task, False
        budget = timeout_s + self._batch_window_s + self._deadline_grace_s
        try:
            return await asyncio.wait_for(asyncio.shield(task), budget), False
        except asyncio.TimeoutError:
            self._deadline_misses += 1
            task.add_done_callback(lambda t: t.exception())  # not abandoned
            return UNDECIDED, True

    async def _handle_contain(self, body):
        schema = self._schema_of(body)
        sup = self._query_field(body, "sup")
        sub = self._query_field(body, "sub")
        timeout_s = self._timeout_of(body)
        group = (tuple(sorted(schema.items())), timeout_s)
        verdict, missed = await self._with_deadline(
            self._batcher.submit(group, (sup, sub)), timeout_s
        )
        payload = _verdict_payload(verdict)
        if isinstance(payload, dict):  # a captured domain error
            return 422, payload
        response = {"verdict": payload}
        if missed:
            response["deadline_exceeded"] = True
        return 200, response

    async def _handle_equiv(self, body):
        schema = self._schema_of(body)
        q1 = self._query_field(body, "q1")
        q2 = self._query_field(body, "q2")
        timeout_s = self._timeout_of(body)
        weak = bool(body.get("weak", False))
        engine = self._engine.engine()
        decide = (
            engine.weakly_equivalent if weak else engine.equivalent
        )
        loop = asyncio.get_running_loop()

        def run():
            verdict = decide(q1, q2, schema)
            self._flush()
            return verdict

        verdict, missed = await self._with_deadline(
            loop.run_in_executor(self._executor, run), timeout_s
        )
        response = {"verdict": _verdict_payload(verdict), "weak": weak}
        if missed:
            response["deadline_exceeded"] = True
        return 200, response

    async def _handle_matrix(self, body):
        schema = self._schema_of(body)
        queries = body.get("queries")
        if (
            not isinstance(queries, list)
            or len(queries) < 1
            or not all(isinstance(q, str) for q in queries)
        ):
            raise _HttpError(400, "'queries' must be a list of strings")
        timeout_s = self._timeout_of(body)
        loop = asyncio.get_running_loop()

        def run():
            matrix = self._engine.pairwise_matrix(
                queries, schema, timeout_s=timeout_s
            )
            self._flush()
            return matrix

        # The matrix pays N^2 checks; its deadline scales with the work.
        budget = None if timeout_s is None else timeout_s * len(queries) ** 2
        matrix, missed = await self._with_deadline(
            loop.run_in_executor(self._executor, run), budget
        )
        if missed:
            return 200, {"matrix": None, "deadline_exceeded": True}
        return 200, {
            "matrix": [[_verdict_payload(v) for v in row] for row in matrix]
        }

    async def _handle_classify(self, body):
        schema = self._schema_of(body)
        query = self._query_field(body, "query")
        views = body.get("views")
        if (
            not isinstance(views, dict)
            or not views
            or not all(
                isinstance(k, str) and isinstance(v, str)
                for k, v in views.items()
            )
        ):
            raise _HttpError(
                400, "'views' must be a non-empty object of name -> query"
            )
        timeout_s = self._timeout_of(body)
        names = sorted(views)
        loop = asyncio.get_running_loop()

        def run():
            labels = self._engine.classify_many(
                query, [views[name] for name in names], schema,
                timeout_s=timeout_s,
            )
            self._flush()
            return labels

        # Each view costs two containment checks; scale the deadline.
        budget = None if timeout_s is None else timeout_s * 2 * len(names)
        labels, missed = await self._with_deadline(
            loop.run_in_executor(self._executor, run), budget
        )
        if missed:
            return 200, {"classifications": None, "deadline_exceeded": True}
        return 200, {"classifications": dict(zip(names, labels))}

    async def _handle_lint(self, body):
        from repro.analysis import AnalysisConfig, analyze

        schema = self._schema_of(body)
        if "queries" in body:
            queries = body["queries"]
            if not isinstance(queries, list) or not all(
                isinstance(q, str) for q in queries
            ):
                raise _HttpError(400, "'queries' must be a list of strings")
        else:
            queries = [self._query_field(body, "query")]
        config = AnalysisConfig(expensive=bool(body.get("expensive", False)))
        select, ignore = body.get("select"), body.get("ignore")
        for name, codes in (("select", select), ("ignore", ignore)):
            if codes is not None and (
                not isinstance(codes, list)
                or not all(isinstance(c, str) for c in codes)
            ):
                raise _HttpError(400, "%r must be a list of rule codes" % name)
        engine = self._engine.engine()
        loop = asyncio.get_running_loop()

        def run():
            results = []
            for query in queries:
                diagnostics = analyze(
                    query, schema, engine=engine, config=config,
                    select=select, ignore=ignore,
                )
                results.append([d.as_dict() for d in diagnostics])
            self._flush()
            return results

        results = await loop.run_in_executor(self._executor, run)
        counts = {"error": 0, "warning": 0, "info": 0}
        targets = []
        for query, diagnostics in zip(queries, results):
            for diagnostic in diagnostics:
                counts[diagnostic["severity"]] += 1
            targets.append({"target": query, "diagnostics": diagnostics})
        return 200, {
            "version": 1,
            "targets": targets,
            "summary": {
                "targets": len(targets),
                "errors": counts["error"],
                "warnings": counts["warning"],
                "infos": counts["info"],
            },
        }

    async def _handle_flush(self, body):
        loop = asyncio.get_running_loop()
        flushed = await loop.run_in_executor(self._executor, self._flush)
        return 200, {"flushed": flushed}

    def _store_stats(self):
        store = self.store()
        stats = {
            "sizes": store.sizes(),
            "counters": store.counters(),
            "hit_rates": store.hit_rates(),
        }
        disk = getattr(store, "disk", None)
        if disk is not None:
            stats["persistent"] = {
                "path": disk.path,
                "broken": disk.broken,
                "sizes": disk.sizes(),
                "counters": disk.counters(),
                "hit_rates": disk.hit_rates(),
            }
            stats["promotions"] = store.promotions
            stats["flushes"] = store.flushes
        return stats

    async def _handle_stats(self):
        uptime = (
            monotonic() - self._started_at if self._started_at else 0.0
        )
        return 200, {
            "service": {
                "uptime_s": round(uptime, 3),
                "requests": dict(sorted(self._requests.items())),
                "deadline_misses": self._deadline_misses,
                "batches": self._batcher.batches,
                "batched_requests": self._batcher.batched_items,
                "largest_batch": self._batcher.largest_batch,
                "preloaded": self.preloaded,
            },
            "engine": self._engine.stats().as_dict(),
            "store": self._store_stats(),
        }

    _ROUTES = {
        ("POST", "/v1/contain"): "_handle_contain",
        ("POST", "/v1/equiv"): "_handle_equiv",
        ("POST", "/v1/matrix"): "_handle_matrix",
        ("POST", "/v1/lint"): "_handle_lint",
        ("POST", "/v1/classify"): "_handle_classify",
        ("POST", "/v1/flush"): "_handle_flush",
    }

    async def _dispatch(self, method, target, body_bytes):
        if method == "GET" and target == "/healthz":
            return 200, {"ok": True}
        if method == "GET" and target == "/v1/stats":
            self._tally("stats")
            return await self._handle_stats()
        handler = self._ROUTES.get((method, target))
        if handler is None:
            raise _HttpError(404, "no route %s %s" % (method, target))
        try:
            body = json.loads(body_bytes or b"{}")
        except ValueError:
            raise _HttpError(400, "request body is not valid JSON")
        if not isinstance(body, dict):
            raise _HttpError(400, "request body must be a JSON object")
        self._tally(target.rsplit("/", 1)[-1])
        try:
            return await getattr(self, handler)(body)
        except ReproError as exc:
            # Domain errors that escaped capture (e.g. equiv over a
            # query outside the decidable fragment).
            return 422, {
                "error": {"type": type(exc).__name__, "message": str(exc)}
            }

    # -- HTTP framing --------------------------------------------------

    @staticmethod
    async def _read_request(reader):
        try:
            line = await reader.readline()
        except (ConnectionError, asyncio.LimitOverrunError):
            return None
        if not line:
            return None
        parts = line.decode("latin-1").strip().split()
        if len(parts) != 3:
            raise _HttpError(400, "malformed request line")
        method, target, __ = parts
        headers = {}
        while True:
            line = await reader.readline()
            if line in (b"", b"\r\n", b"\n"):
                break
            name, __, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0") or "0")
        except ValueError:
            raise _HttpError(400, "bad Content-Length")
        if length > MAX_BODY_BYTES:
            raise _HttpError(413, "request body too large")
        body = b""
        if length:
            try:
                body = await reader.readexactly(length)
            except asyncio.IncompleteReadError:
                return None
        return method, target, headers, body

    @staticmethod
    def _response_bytes(status, payload, keep_alive):
        reasons = {200: "OK", 400: "Bad Request", 404: "Not Found",
                   413: "Payload Too Large", 422: "Unprocessable Entity",
                   500: "Internal Server Error"}
        body = json.dumps(payload, sort_keys=True).encode("utf-8") + b"\n"
        head = (
            "HTTP/1.1 %d %s\r\n"
            "Content-Type: application/json\r\n"
            "Content-Length: %d\r\n"
            "Connection: %s\r\n"
            "\r\n" % (
                status, reasons.get(status, "Error"), len(body),
                "keep-alive" if keep_alive else "close",
            )
        )
        return head.encode("latin-1") + body

    async def _handle_client(self, reader, writer):
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except _HttpError as exc:
                    writer.write(self._response_bytes(
                        exc.status, {"error": {"message": exc.message}}, False
                    ))
                    await writer.drain()
                    break
                if request is None:
                    break
                method, target, headers, body = request
                keep_alive = (
                    headers.get("connection", "keep-alive").lower()
                    != "close"
                )
                try:
                    status, payload = await self._dispatch(
                        method, target, body
                    )
                except _HttpError as exc:
                    status, payload = exc.status, {
                        "error": {"message": exc.message}
                    }
                except Exception as exc:  # unexpected: keep serving
                    status, payload = 500, {
                        "error": {
                            "type": type(exc).__name__, "message": str(exc)
                        }
                    }
                writer.write(
                    self._response_bytes(status, payload, keep_alive)
                )
                await writer.drain()
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    # -- lifecycle -----------------------------------------------------

    async def start(self):
        """Bind and begin serving; resolves :attr:`port` when ephemeral."""
        self._server = await asyncio.start_server(
            self._handle_client, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._started_at = monotonic()
        return self

    async def stop(self):
        """Stop serving: drain batches, flush the store, close the
        engine and its pool."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self._batcher.drain()
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(self._executor, self._flush)
        self._engine.close()
        self._executor.shutdown(wait=True)

    async def serve_forever(self):
        """:meth:`start` then serve until cancelled."""
        if self._server is None:
            await self.start()
        try:
            await self._server.serve_forever()
        finally:
            await self.stop()


class BackgroundService:
    """A service running on its own thread + event loop (tests, benches,
    and anything else that is not itself async).

    >>> with BackgroundService(store_path=path) as svc:
    ...     client = ServiceClient(svc.host, svc.port)

    Startup failures propagate from :meth:`start`; :meth:`stop` is
    idempotent and joins the thread.
    """

    def __init__(self, **service_kwargs):
        service_kwargs.setdefault("port", 0)
        self._kwargs = service_kwargs
        self._thread = None
        self._loop = None
        self._stop_event = None
        self._ready = threading.Event()
        self._failure = None
        self.service = None

    @property
    def host(self):
        return self.service.host

    @property
    def port(self):
        return self.service.port

    def _main(self):
        try:
            asyncio.run(self._amain())
        except Exception as exc:  # surfaced by start()
            self._failure = exc
            self._ready.set()

    async def _amain(self):
        service = ContainmentService(**self._kwargs)
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        await service.start()
        self.service = service
        self._ready.set()
        await self._stop_event.wait()
        await service.stop()

    def start(self, timeout=30.0):
        self._thread = threading.Thread(
            target=self._main, name="repro-service", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError("service did not start within %gs" % timeout)
        if self._failure is not None:
            raise self._failure
        return self

    def stop(self, timeout=30.0):
        if self._thread is None or self._loop is None:
            return
        self._loop.call_soon_threadsafe(self._stop_event.set)
        self._thread.join(timeout)
        self._thread = None

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info):
        self.stop()
        return False
