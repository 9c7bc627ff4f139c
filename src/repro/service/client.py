"""A minimal stdlib client for the containment service.

:class:`ServiceClient` speaks the JSON protocol of
:class:`repro.service.server.ContainmentService` over one keep-alive
``http.client`` connection.  Verdicts come back exactly as the wire
encodes them: ``True`` / ``False``, the string ``"undecided"`` for
timed-out checks, and ``None`` for incomparable matrix cells.  Domain
errors (HTTP 4xx/5xx with an ``error`` payload) raise
:class:`ServiceError`.

The client is deliberately boring — synchronous, one socket, no
retries — because its jobs are tests, benchmarks, and scripting; it is
also the reference for what a real client must send.
"""

import json
from http.client import HTTPConnection

__all__ = ["ServiceClient", "ServiceError"]


class ServiceError(Exception):
    """An error response from the service.

    :ivar status: the HTTP status code.
    :ivar kind: the server-side exception type name (may be None for
        protocol-level errors).
    """

    def __init__(self, status, message, kind=None):
        super().__init__("[%d] %s" % (status, message))
        self.status = status
        self.kind = kind
        self.message = message


class ServiceClient:
    """A synchronous client bound to one service address.

    :param host, port: the service address.
    :param timeout_s: socket timeout for each round trip (should exceed
        the service's per-check deadline plus its grace).
    """

    def __init__(self, host="127.0.0.1", port=8977, timeout_s=60.0):
        self.host = host
        self.port = port
        self._conn = HTTPConnection(host, port, timeout=timeout_s)

    def close(self):
        self._conn.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False

    def _request(self, method, path, body=None):
        payload = None
        headers = {"Connection": "keep-alive"}
        if body is not None:
            payload = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        try:
            self._conn.request(method, path, body=payload, headers=headers)
            response = self._conn.getresponse()
            raw = response.read()
        except (ConnectionError, OSError):
            # One reconnect: the server may have closed an idle socket.
            self._conn.close()
            self._conn.request(method, path, body=payload, headers=headers)
            response = self._conn.getresponse()
            raw = response.read()
        try:
            decoded = json.loads(raw)
        except ValueError:
            raise ServiceError(response.status, "non-JSON response body")
        if response.status >= 400:
            error = decoded.get("error", {}) if isinstance(
                decoded, dict
            ) else {}
            raise ServiceError(
                response.status,
                error.get("message", "request failed"),
                kind=error.get("type"),
            )
        return decoded

    # -- endpoints -----------------------------------------------------

    def health(self):
        """True when the service answers ``/healthz``."""
        return bool(self._request("GET", "/healthz").get("ok"))

    def stats(self):
        """The service's ``/v1/stats`` payload."""
        return self._request("GET", "/v1/stats")

    def flush(self):
        """Force a persistent-tier write-back; count of rows flushed."""
        return self._request("POST", "/v1/flush", {}).get("flushed", 0)

    def contain(self, sup, sub, schema=None, **knobs):
        """``sub ⊑ sup`` → ``True`` / ``False`` / ``"undecided"``.

        *knobs* pass through to the request body; the service reads
        ``timeout_s`` and ignores fields it does not know.
        """
        body = {"sup": sup, "sub": sub, **knobs}
        if schema is not None:
            body["schema"] = schema
        return self._request("POST", "/v1/contain", body)["verdict"]

    def equiv(self, q1, q2, schema=None, weak=False, **knobs):
        """Equivalence (weak when *weak*) of two queries."""
        body = {"q1": q1, "q2": q2, "weak": weak, **knobs}
        if schema is not None:
            body["schema"] = schema
        return self._request("POST", "/v1/equiv", body)["verdict"]

    def matrix(self, queries, schema=None, **knobs):
        """The pairwise containment matrix of *queries*."""
        body = {"queries": list(queries), **knobs}
        if schema is not None:
            body["schema"] = schema
        return self._request("POST", "/v1/matrix", body)["matrix"]

    def classify(self, query, views, schema=None, **knobs):
        """``{view name: classification label}`` for *query* against
        *views* (a ``{name: query text}`` mapping); None when the
        service's deadline lapsed first."""
        body = {"query": query, "views": dict(views), **knobs}
        if schema is not None:
            body["schema"] = schema
        return self._request("POST", "/v1/classify", body)["classifications"]

    def lint(self, query=None, queries=None, schema=None, **knobs):
        """The lint report for one query or a batch of queries."""
        body = dict(knobs)
        if queries is not None:
            body["queries"] = list(queries)
        else:
            body["query"] = query
        if schema is not None:
            body["schema"] = schema
        return self._request("POST", "/v1/lint", body)
