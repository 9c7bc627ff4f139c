"""The containment server as a subprocess, and an open-loop HTTP client.

The server is ``python -m repro serve`` (or the traced shim) started from
the checkout's ``src``, bound to an ephemeral port, with an SQLite store
inside the benchmark's output directory.  The client sends a schedule
of requests over :data:`CONNECTIONS` keep-alive connections, one of
them on the calling thread: open loop (each request waits until its
arrival offset and is timed from that moment, so a stall delays the
requests behind it) or closed loop (no offsets: the next request goes as
soon as a connection is free).
"""

import json
import os
import signal
import subprocess
import sys
import threading
from http.client import HTTPConnection, HTTPException
from time import perf_counter, sleep

#: Concurrent client connections (the machine has two cores).
CONNECTIONS = 2
#: The per-request deadline the server enforces.  The slowest request
#: takes under 0.1 s, so a deadline miss (an ``"undecided"`` answer,
#: which the oracle counts as wrong) would only measure a stalled host.
REQUEST_TIMEOUT_S = 30.0
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 60.0


def pin(pid, cpus):
    """Restrict *pid* (0: the calling thread) to *cpus*, if allowed.

    Pinning steadies the measurement but is not needed for it, so a host
    that refuses it runs unpinned.
    """
    try:
        os.sched_setaffinity(pid, cpus)
    except OSError:
        pass


class Server:
    """One server process pinned to *cpu*; :meth:`start` returns once
    ``/healthz`` is ok."""

    def __init__(self, root, directory, command, cpu):
        self.root = root
        self.directory = directory
        self.command = command
        self.cpu = cpu
        self.process = None
        self.port = None
        self._log = None

    def start(self):
        """Spawn the server and wait for it; on any failure it is stopped
        before the exception propagates."""
        try:
            return self._start()
        except BaseException:
            self.stop()
            raise

    def _start(self):
        os.makedirs(self.directory, exist_ok=True)
        log_path = os.path.join(self.directory, "server.log")
        self._log = open(log_path, "w")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(self.root, "src")
        env["TMPDIR"] = self.directory
        self.process = subprocess.Popen(
            [sys.executable] + self.command, cwd=self.root, env=env,
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=self._log,
        )
        # Pinned while the interpreter starts, before the server creates
        # its threads, which inherit the mask.
        pin(self.process.pid, {self.cpu})
        deadline = perf_counter() + START_TIMEOUT_S
        while self.port is None:
            if self.process.poll() is not None or perf_counter() > deadline:
                with open(log_path) as handle:
                    log = handle.read()
                raise RuntimeError("server did not start:\n%s" % log)
            with open(log_path) as handle:
                for line in handle:
                    # Only a whole line: the server may be mid-write.
                    if line.startswith("serving on http://") and \
                            line.endswith("\n"):
                        self.port = int(line.strip().rsplit(":", 1)[1])
            if self.port is None:
                sleep(0.005)
        connection = HTTPConnection("127.0.0.1", self.port, timeout=10)
        try:
            while True:
                try:
                    connection.request("GET", "/healthz")
                    response = connection.getresponse()
                    if json.loads(response.read()).get("ok"):
                        return self
                except OSError:
                    connection.close()
                    if perf_counter() > deadline:
                        raise
                    sleep(0.005)
        finally:
            connection.close()

    def get(self, path):
        connection = HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            connection.request("GET", path)
            return json.loads(connection.getresponse().read())
        finally:
            connection.close()

    def send_signal(self, signum):
        self.process.send_signal(signum)

    def stop(self, signum=signal.SIGINT):
        """Ask the server to exit, wait for it, and kill it if it hangs."""
        if self.process is None:
            return None
        if self.process.poll() is None:
            self.process.send_signal(signum)
            try:
                self.process.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._log.close()
        code, self.process = self.process.returncode, None
        return code


def _body(sup, sub, schema):
    return json.dumps({"sup": sup, "sub": sub, "schema": schema,
                       "timeout_s": REQUEST_TIMEOUT_S}).encode("utf-8")


def send(port, requests, offsets=None):
    """POST every request body to ``/v1/contain``; per-request records.

    Each record is ``(due, sent, done, status, payload)`` in
    ``perf_counter`` seconds.  With *offsets* (open loop) request *i* is
    due at ``start + offsets[i]``; otherwise (closed loop) it is due when
    sent.
    """
    records = [None] * len(requests)
    cursor = iter(range(len(requests)))
    lock = threading.Lock()
    start = perf_counter() + 0.05
    errors = []

    headers = {"Content-Type": "application/json",
               "Connection": "keep-alive"}

    def post(connection, body):
        connection.request("POST", "/v1/contain", body=body, headers=headers)
        response = connection.getresponse()
        return response.status, response.read()

    def worker():
        connection = HTTPConnection("127.0.0.1", port, timeout=60)
        try:
            while True:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                due = None
                if offsets is not None:
                    due = start + offsets[index]
                    wait = due - perf_counter()
                    if wait > 0:
                        sleep(wait)
                sent = perf_counter()
                try:
                    status, payload = post(connection, requests[index])
                except (ConnectionError, HTTPException):
                    # One reconnect, as repro.service.client does: a
                    # dropped keep-alive socket is not a wrong answer.
                    connection.close()
                    status, payload = post(connection, requests[index])
                done = perf_counter()
                records[index] = (sent if due is None else due, sent, done,
                                  status, json.loads(payload))
        except Exception as exc:  # reported by the caller as a failure
            errors.append(exc)
        finally:
            connection.close()

    helpers = [threading.Thread(target=worker)
               for __ in range(CONNECTIONS - 1)]
    for thread in helpers:
        thread.start()
    worker()
    for thread in helpers:
        thread.join()
    if errors:
        raise errors[0]
    return records


def encode_requests(entries, schemas):
    """``(kind, sup, sub)`` entries → request bodies."""
    return [_body(sup, sub, schemas[kind]) for kind, sup, sub in entries]
