"""HTTP/1.1 keep-alive load generator for ``POST /embed``.

One thread per connection.  In the open-loop phase requests have due
times on a fixed-rate schedule; a connection takes the next request in
order and sends it at its due time, or as soon as it is free when it is
already late.  Latency is timed from the due time, so a stall also counts
against the requests queued behind it.  In the closed-loop phase every
connection sends its next request as soon as its previous reply arrives.
"""

from __future__ import annotations

import http.client
import json
import threading
import time

import numpy as np


class Request:
    __slots__ = ("graphs", "body", "due", "sent", "done", "status", "reply")

    def __init__(self, graphs, body: bytes):
        self.graphs = graphs
        self.body = body
        self.due = None
        self.sent = None
        self.done = None
        self.status = None
        self.reply = None


def graph_payload(graph) -> dict:
    return {"num_nodes": int(graph.num_nodes),
            "edges": np.asarray(graph.edges).tolist(),
            "x": np.asarray(graph.x).tolist()}


def make_request(graphs) -> Request:
    body = json.dumps({"graphs": [graph_payload(g) for g in graphs]})
    return Request(graphs, body.encode())


class _Source:
    """Hands out requests in order to the connection threads."""

    def __init__(self, requests, stop_at: float | None):
        self._requests = requests
        self._next = 0
        self._lock = threading.Lock()
        self._stop_at = stop_at

    def take(self):
        with self._lock:
            if self._next >= len(self._requests):
                return None
            if self._stop_at is not None and \
                    time.perf_counter() >= self._stop_at:
                return None
            request = self._requests[self._next]
            self._next += 1
            return request


def _drive(host: str, port: int, source: _Source, errors: list) -> None:
    conn = http.client.HTTPConnection(host, port, timeout=60)
    try:
        while True:
            request = source.take()
            if request is None:
                return
            if request.due is not None:
                delay = request.due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
            request.sent = time.perf_counter()
            try:
                conn.request("POST", "/embed", body=request.body,
                             headers={"Content-Type": "application/json"})
                response = conn.getresponse()
                data = response.read()
                request.done = time.perf_counter()
                request.status = response.status
                request.reply = data
            except (OSError, http.client.HTTPException) as exc:
                request.done = time.perf_counter()
                request.status = f"{type(exc).__name__}: {exc}"
                errors.append(request.status)
                conn.close()
                conn = http.client.HTTPConnection(host, port, timeout=60)
    finally:
        conn.close()


def _run(host, port, connections, source) -> list:
    errors: list = []
    threads = [threading.Thread(target=_drive, args=(host, port, source,
                                                    errors),
                                name=f"loadgen-{i}")
               for i in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return errors


def open_loop(host, port, connections, requests, rate: float) -> float:
    """Send ``requests`` at ``rate`` per second; returns the phase start."""
    start = time.perf_counter() + 0.05
    for index, request in enumerate(requests):
        request.due = start + index / rate
    _run(host, port, connections, _Source(requests, None))
    return start


def closed_loop(host, port, connections, requests,
                seconds: float) -> tuple[float, float]:
    """Send back to back for ``seconds`` (or until ``requests`` run out);
    returns the phase's (start, end)."""
    start = time.perf_counter()
    _run(host, port, connections, _Source(requests, start + seconds))
    done = [r.done for r in requests if r.done is not None]
    return start, max(done) if done else start
