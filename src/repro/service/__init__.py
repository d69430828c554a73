"""``repro.service`` — the concurrent TEA replay service.

Turns the reproduction from a batch pipeline into a long-running
server: automaton snapshots built once (``repro.store``) are preloaded
and served to many concurrent clients over a small length-prefixed
JSON-over-TCP protocol.

- :mod:`repro.service.protocol` — framing, error codes, both asyncio
  and blocking I/O flavours;
- :mod:`repro.service.server` — :class:`TeaService`: per-connection
  request pipelining, a worker pool for CPU-bound replays, request
  timeouts, payload limits, graceful drain, ``service.*`` metrics;
- :mod:`repro.service.client` — :class:`ServiceClient`, the blocking
  client library;
- :mod:`repro.service.testing` — :class:`ServiceThread`, an in-process
  server harness for tests;
- ``python -m repro.service`` — the CLI: ``serve`` / ``build`` /
  ``call``.

See ``docs/service.md`` for the wire protocol and operational knobs.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.service.client import ServiceClient
    from repro.service.protocol import (
        ERROR_CODES,
        MAX_PAYLOAD_DEFAULT,
        PayloadTooLarge,
        ProtocolError,
        ServiceError,
    )
    from repro.service.server import (
        REPLAY_CONFIGS,
        ServiceConfig,
        ServiceSetupError,
        SnapshotEntry,
        TeaService,
    )
    from repro.service.testing import ServiceThread

__getattr__, __dir__ = lazy_exports(globals(), {
    ".client": ("ServiceClient",),
    ".protocol": ("ERROR_CODES", "MAX_PAYLOAD_DEFAULT", "PayloadTooLarge",
                  "ProtocolError", "ServiceError"),
    ".server": ("REPLAY_CONFIGS", "ServiceConfig", "ServiceSetupError",
                "SnapshotEntry", "TeaService"),
    ".testing": ("ServiceThread",),
})

__all__ = [
    "ERROR_CODES",
    "MAX_PAYLOAD_DEFAULT",
    "PayloadTooLarge",
    "ProtocolError",
    "ServiceError",
    "ServiceClient",
    "REPLAY_CONFIGS",
    "ServiceConfig",
    "ServiceSetupError",
    "SnapshotEntry",
    "TeaService",
    "ServiceThread",
]
