"""Blocking client for the TEA replay service.

A thin synchronous library over the length-prefixed JSON protocol so
tests, the harness and scripts can talk to a running server without
touching asyncio.  One :class:`ServiceClient` wraps one TCP connection;
it is not thread-safe — give each thread its own client (connections
are cheap, and the server multiplexes them all).

Responses are matched to requests by ``id``, so a client may also
pipeline: :meth:`call_many` sends a batch of requests back-to-back and
collects the replies in request order even if the server answers out
of order.

A transport failure (a dropped connection, a malformed or oversized
frame) leaves the stream at an unknown position, so the client closes
the socket and forgets stashed replies before re-raising; the next call
reconnects.
"""

import socket

from repro.obs import Observability
from repro.service.protocol import (
    MAX_PAYLOAD_DEFAULT,
    ProtocolError,
    ServiceError,
    read_frame_blocking,
    write_frame_blocking,
)


class ServiceClient:
    """One blocking connection to a :class:`~repro.service.TeaService`.

    Usable as a context manager::

        with ServiceClient(host, port) as client:
            report = client.replay(snapshot=key)
    """

    def __init__(self, host="127.0.0.1", port=7321, timeout=60.0,
                 max_payload=MAX_PAYLOAD_DEFAULT, obs=None):
        self.host = host
        self.port = int(port)
        self.timeout = timeout
        self.max_payload = max_payload
        self.obs = obs if obs is not None else Observability()
        self._sock = None
        self._next_id = 0
        self._stash = {}  # responses received for other request ids

    # ------------------------------------------------------------------

    def connect(self):
        if self._sock is None:
            self._sock = socket.create_connection(
                (self.host, self.port), timeout=self.timeout
            )
        return self

    def close(self):
        if self._sock is not None:
            try:
                self._sock.close()
            finally:
                self._sock = None

    def __enter__(self):
        return self.connect()

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False

    # ------------------------------------------------------------------

    def _send_request(self, method, params):
        self.connect()
        self._next_id += 1
        request_id = self._next_id
        write_frame_blocking(
            self._sock,
            {"id": request_id, "method": method, "params": params},
        )
        return request_id

    def _receive(self, request_id):
        if request_id in self._stash:
            return self._stash.pop(request_id)
        while True:
            reply = read_frame_blocking(self._sock, self.max_payload)
            if reply is None:
                raise ProtocolError(
                    "server closed the connection before replying"
                )
            if reply.get("id") == request_id:
                return reply
            self._stash[reply.get("id")] = reply

    @staticmethod
    def _unwrap(reply):
        if reply.get("ok"):
            return reply.get("result")
        error = reply.get("error") or {}
        raise ServiceError(
            error.get("code", "unknown"), error.get("message", "")
        )

    def call(self, method, **params):
        """One RPC round-trip; returns the result or raises ServiceError."""
        self.obs.metrics.counter("client.requests").inc()
        return self.call_many([(method, params)])[0]

    def call_many(self, requests):
        """Pipeline ``[(method, params), ...]`` on this connection.

        All requests are written before any reply is read; results come
        back in request order.  Raises on the first failed reply.
        """
        try:
            ids = [
                self._send_request(method, params)
                for method, params in requests
            ]
            replies = [self._receive(request_id) for request_id in ids]
        except (ProtocolError, OSError):
            self.close()
            self._stash.clear()
            raise
        return [self._unwrap(reply) for reply in replies]

    # -- convenience wrappers ------------------------------------------

    def ping(self):
        return self.call("ping")

    def snapshots(self):
        return self.call("snapshots")["snapshots"]

    def snapshot_info(self, snapshot=None):
        params = {} if snapshot is None else {"snapshot": snapshot}
        return self.call("snapshot-info", **params)

    def replay(self, snapshot=None, config="global_local", batch=None):
        params = {"config": config}
        if snapshot is not None:
            params["snapshot"] = snapshot
        if batch is not None:
            params["batch"] = batch
        return self.call("replay", **params)

    def coverage(self, snapshot=None, config="global_local"):
        params = {"config": config}
        if snapshot is not None:
            params["snapshot"] = snapshot
        return self.call("coverage", **params)

    def step_batch(self, labels, snapshot=None, start=0,
                   return_states=False):
        params = {"labels": list(labels), "start": start,
                  "return_states": return_states}
        if snapshot is not None:
            params["snapshot"] = snapshot
        return self.call("step-batch", **params)

    def stats(self):
        return self.call("stats")

    def shutdown(self):
        return self.call("shutdown")

    def __repr__(self):
        state = "connected" if self._sock is not None else "idle"
        return "<ServiceClient %s:%d %s>" % (self.host, self.port, state)
