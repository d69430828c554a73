"""In-process harness for driving a :class:`TeaService` from tests.

:class:`ServiceThread` runs the asyncio server on a dedicated
background event-loop thread so ordinary blocking test code (and the
blocking :class:`~repro.service.client.ServiceClient`) can talk to a
real TCP server without subprocesses.  Used by ``tests/test_service.py``
and handy for interactive experiments::

    with ServiceThread(store) as service:
        with service.client() as client:
            print(client.ping())

The module also owns the ephemeral-port discipline for every service
test: :func:`ephemeral_config` builds a
:class:`~repro.service.server.ServiceConfig` pinned to ``port=0`` (the
kernel picks a free port at bind time, so parallel test runs can never
collide on a fixed port), and :func:`wait_for_port_file` reads the
bound port back from a subprocess server's ``--port-file``.
"""

import asyncio
import os
import threading
import time

from repro.service.client import ServiceClient
from repro.service.server import ServiceConfig, TeaService


def ephemeral_config(**kwargs):
    """A :class:`ServiceConfig` bound to an OS-assigned free port.

    Tests must never name a fixed port — two suites (or two pytest
    workers) racing for it is exactly the flakiness this helper
    removes.  Any explicit ``port=`` is rejected; all other
    :class:`ServiceConfig` knobs pass through.
    """
    if kwargs.get("port"):
        raise ValueError(
            "ephemeral_config pins port=0; do not pass a fixed port"
        )
    kwargs["port"] = 0
    return ServiceConfig(**kwargs)


def wait_for_port_file(path, timeout=120.0, poll=0.05):
    """Poll ``path`` (a ``--port-file``) until it holds a port number.

    Subprocess servers bind ``port=0`` and publish the resolved port
    atomically; this is the parent's side of that handshake.  Raises
    ``TimeoutError`` if the file never materializes.
    """
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if os.path.exists(path):
            text = ""
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    text = handle.read().strip()
            except OSError:
                text = ""
            if text:
                return int(text)
        time.sleep(poll)
    raise TimeoutError("no port appeared in %s within %.1fs"
                       % (path, timeout))


class ServiceThread:
    """Run a :class:`TeaService` on a background event loop thread."""

    def __init__(self, store, config=None, obs=None, start_timeout=120.0):
        self.service = TeaService(store, config=config, obs=obs)
        self.start_timeout = start_timeout
        self._loop = None
        self._thread = None

    # ------------------------------------------------------------------

    def start(self):
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._run_loop, name="tea-service", daemon=True
        )
        self._thread.start()
        future = asyncio.run_coroutine_threadsafe(
            self.service.start(), self._loop
        )
        try:
            future.result(timeout=self.start_timeout)
        except BaseException:
            self._shutdown_loop()
            raise
        return self

    def stop(self):
        """Graceful drain, then tear the loop down."""
        if self._loop is None:
            return
        try:
            asyncio.run_coroutine_threadsafe(
                self.service.stop(), self._loop
            ).result(timeout=self.start_timeout)
        finally:
            self._shutdown_loop()

    def _run_loop(self):
        asyncio.set_event_loop(self._loop)
        self._loop.run_forever()

    def _shutdown_loop(self):
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10.0)
        if not self._loop.is_running():
            self._loop.close()
        self._loop = None
        self._thread = None

    # ------------------------------------------------------------------

    @property
    def address(self):
        return self.service.address

    @property
    def host(self):
        return self.address[0]

    @property
    def port(self):
        return self.address[1]

    def client(self, **kwargs):
        """A fresh blocking client aimed at this server."""
        host, port = self.address
        return ServiceClient(host, port, **kwargs)

    def __enter__(self):
        return self.start()

    def __exit__(self, exc_type, exc, tb):
        self.stop()
        return False
