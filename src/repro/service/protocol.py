"""The replay service wire protocol: length-prefixed JSON frames.

One frame is a 4-byte big-endian payload length followed by that many
bytes of UTF-8 JSON.  Requests carry ``{"id", "method", "params"}``;
responses echo the ``id`` and carry either ``{"ok": true, "result"}``
or ``{"ok": false, "error": {"code", "message"}}``.  Because every
response names its request, a connection can pipeline: a client may
have any number of requests in flight and responses may return in
completion order (see docs/service.md).

This module holds the framing plus both I/O flavours — asyncio reader/
writer helpers for the server and blocking socket helpers for the
client — so the two sides cannot drift apart.
"""

import json
import struct

from repro.errors import ReproError

#: Frame header: payload byte length, unsigned 32-bit big-endian.
HEADER = struct.Struct(">I")

#: Default cap on a single frame's payload (requests and responses).
MAX_PAYLOAD_DEFAULT = 8 * 1024 * 1024

# -- structured error codes (docs/service.md) -------------------------
E_PARSE = "parse-error"          # frame was not valid JSON / not an object
E_METHOD = "unknown-method"      # no such RPC method
E_PARAMS = "bad-params"          # params missing/invalid for the method
E_SNAPSHOT = "unknown-snapshot"  # no preloaded snapshot with that id
E_INVALID = "invalid-automaton"  # snapshot failed static verification
E_TOO_LARGE = "payload-too-large"
E_TIMEOUT = "request-timeout"
E_SHUTDOWN = "shutting-down"     # server is draining; request refused
E_INTERNAL = "internal-error"

ERROR_CODES = (
    E_PARSE, E_METHOD, E_PARAMS, E_SNAPSHOT, E_INVALID, E_TOO_LARGE,
    E_TIMEOUT, E_SHUTDOWN, E_INTERNAL,
)


class ProtocolError(ReproError):
    """A malformed frame on the service connection."""


class PayloadTooLarge(ProtocolError):
    """A frame announced a payload beyond the configured limit."""


class ServiceError(ReproError):
    """A structured error reply from the service (client side).

    Carries the wire ``code`` so callers can branch on it.
    """

    def __init__(self, code, message):
        self.code = code
        super().__init__("%s: %s" % (code, message))


def encode_frame(obj):
    """Serialize ``obj`` to one wire frame (header + JSON payload)."""
    payload = json.dumps(obj, separators=(",", ":"), sort_keys=True)
    data = payload.encode("utf-8")
    return HEADER.pack(len(data)) + data


def decode_payload(data):
    """Parse one frame's payload; raises :class:`ProtocolError`."""
    try:
        obj = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError("bad frame payload: %s" % error) from None
    if not isinstance(obj, dict):
        raise ProtocolError("frame payload must be a JSON object")
    return obj


def error_reply(request_id, code, message):
    """A structured error response frame body."""
    return {
        "id": request_id,
        "ok": False,
        "error": {"code": code, "message": str(message)},
    }


def result_reply(request_id, result):
    """A success response frame body."""
    return {"id": request_id, "ok": True, "result": result}


# ---------------------------------------------------------------------
# asyncio flavour (server side)
# ---------------------------------------------------------------------

async def read_frame(reader, max_payload=MAX_PAYLOAD_DEFAULT, counter=None):
    """Read one frame from an asyncio stream reader.

    Returns the decoded object, or ``None`` on clean EOF at a frame
    boundary.  Oversized frames raise :class:`PayloadTooLarge` *before*
    the payload is read, so a hostile length can not balloon memory.
    ``counter`` (an object with ``inc``) receives the wire byte count.
    """
    import asyncio

    try:
        header = await reader.readexactly(HEADER.size)
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return None
        raise ProtocolError("connection closed mid-header") from None
    (length,) = HEADER.unpack(header)
    if length > max_payload:
        raise PayloadTooLarge(
            "frame of %d bytes exceeds the %d-byte payload limit"
            % (length, max_payload)
        )
    try:
        data = await reader.readexactly(length)
    except asyncio.IncompleteReadError:
        raise ProtocolError("connection closed mid-frame") from None
    if counter is not None:
        counter.inc(HEADER.size + length)
    return decode_payload(data)


# ---------------------------------------------------------------------
# blocking flavour (client side)
# ---------------------------------------------------------------------

def read_frame_blocking(sock, max_payload=MAX_PAYLOAD_DEFAULT):
    """Read one frame from a blocking socket; ``None`` on clean EOF."""
    header = _recv_exactly(sock, HEADER.size, allow_eof=True)
    if header is None:
        return None
    (length,) = HEADER.unpack(header)
    if length > max_payload:
        raise PayloadTooLarge(
            "frame of %d bytes exceeds the %d-byte payload limit"
            % (length, max_payload)
        )
    return decode_payload(_recv_exactly(sock, length))


def write_frame_blocking(sock, obj):
    """Write one frame to a blocking socket."""
    sock.sendall(encode_frame(obj))


def _recv_exactly(sock, count, allow_eof=False):
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            if allow_eof and remaining == count:
                return None
            raise ProtocolError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)
