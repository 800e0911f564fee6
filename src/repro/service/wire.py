"""Length-prefixed wire protocol between the gateway and shard workers.

One frame carries one message::

    +-------+----------+------------------+
    | magic | length   | payload          |
    | 4 B   | 4 B (BE) | ``length`` bytes |
    +-------+----------+------------------+

The payload is one of the two message classes below — a
:class:`Request` or its :class:`Response` — pickled as a flat tuple of
its fields (a leading tag names the class) and rebuilt by the decoder: a
tuple of builtins costs a third of what a frozen dataclass instance does
to pickle and unpickle, and the read path pays that per frame.  A read
batch is no message of its own: it is the ordinary ``batched_read``
request, whose members and answers are plain tuples in its ``args`` and
``value``.  Pickle is acceptable here because both ends of every connection
are processes this library spawned itself (a ``socketpair`` shared with
a child) — the wire is a private process boundary, not a network
service.  What the framing
layer *does* defend against is a sick peer: every decoder rejects frames
with a bad magic, frames whose declared length exceeds the receiver's
budget (:class:`FrameTooLarge` — an oversized frame is refused before a
byte of its payload is read), and streams that end mid-frame
(:class:`TruncatedFrame` — a worker that died mid-write must surface as a
typed error, not a hang or a garbage unpickle).

A clean EOF *between* frames is not an error: readers return ``None`` so
callers can distinguish "the peer closed the conversation" from "the peer
died mid-sentence".
"""

from __future__ import annotations

import pickle
import struct
from dataclasses import dataclass
from typing import Any

MAGIC = b"RSW1"
_HEADER = struct.Struct(">4sI")
HEADER_BYTES = _HEADER.size

#: Ceiling on one frame's payload, on both ends of every connection.
#: Checkpoint blobs of the test corpora are well under a megabyte; 64 MiB
#: leaves room for real ones.  Read at call time, so a test may
#: monkeypatch it — a worker forked afterwards inherits the patched value.
MAX_FRAME = 64 * 1024 * 1024


class WireError(Exception):
    """Base class for framing-level failures."""


class BadFrame(WireError):
    """The frame header's magic bytes are wrong (desynchronized stream)."""


class FrameTooLarge(WireError):
    """A frame's declared payload exceeds the receiver's budget."""


class TruncatedFrame(WireError):
    """The stream ended in the middle of a frame (peer died mid-write)."""


@dataclass(frozen=True)
class Request:
    """One method invocation sent to a shard worker."""

    request_id: int
    method: str
    args: tuple = ()


@dataclass(frozen=True)
class Response:
    """A worker's reply; ``error`` carries ``TypeName: detail`` on failure."""

    request_id: int
    ok: bool
    value: Any = None
    error: str | None = None


def _flatten(message) -> tuple:
    kind = type(message)
    if kind is Request:
        return (0, message.request_id, message.method, message.args)
    if kind is Response:
        return (
            1, message.request_id, message.ok, message.value, message.error
        )
    raise TypeError(f"{kind.__name__} is not a wire message")


def _rebuild(flat: tuple):
    tag = flat[0]
    if tag == 0:
        return Request(*flat[1:])
    if tag == 1:
        return Response(*flat[1:])
    raise BadFrame(f"unknown message tag {tag!r}")


def encode_parts(message) -> tuple[bytes, bytes]:
    """Serialize one message into ``(header, payload)`` without joining.

    Callers that can issue scatter writes (``sendmsg``, stream-writer
    buffering) avoid the full extra copy ``header + payload`` would cost
    on a checkpoint base (a whole shard; its redo records are a fraction
    of that).
    """
    payload = pickle.dumps(
        _flatten(message), protocol=pickle.HIGHEST_PROTOCOL
    )
    if len(payload) > MAX_FRAME:
        raise FrameTooLarge(
            f"message of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME}-byte frame budget"
        )
    return _HEADER.pack(MAGIC, len(payload)), payload


def encode(message) -> bytes:
    """Serialize one message into a complete frame."""
    header, payload = encode_parts(message)
    return header + payload


def decode_header(header: bytes) -> int:
    """Validate a frame header; returns the payload length it declares."""
    if len(header) != HEADER_BYTES:
        raise TruncatedFrame(
            f"{len(header)}-byte header (need {HEADER_BYTES})"
        )
    magic, length = _HEADER.unpack(header)
    if magic != MAGIC:
        raise BadFrame(f"bad frame magic {magic!r}")
    if length > MAX_FRAME:
        raise FrameTooLarge(
            f"declared payload of {length} bytes exceeds the "
            f"{MAX_FRAME}-byte frame budget"
        )
    return length


def decode_payload(payload: bytes):
    """Unpickle one complete frame payload and rebuild its message."""
    return _rebuild(pickle.loads(payload))


def decode(frame: bytes):
    """Decode one complete frame (header + payload) into its message."""
    length = decode_header(frame[:HEADER_BYTES])
    payload = frame[HEADER_BYTES:]
    if len(payload) < length:
        raise TruncatedFrame(
            f"frame declares {length} payload bytes, got {len(payload)}"
        )
    return decode_payload(payload[:length])


# -- blocking socket I/O (worker side) -----------------------------------------


def _recv_exact(sock, n: int):
    """Read exactly ``n`` bytes; ``None`` on EOF at a frame boundary.

    Fills one preallocated buffer via ``recv_into`` — no chunk list, no
    ``join`` copy — and returns it as a ``bytearray`` (``struct`` and
    ``pickle`` both accept any bytes-like object).
    """
    if not n:
        return bytearray()
    buf = bytearray(n)
    view = memoryview(buf)
    received = 0
    while received < n:
        got = sock.recv_into(view[received:])
        if not got:
            if not received:
                return None
            raise TruncatedFrame(
                f"stream ended {n - received} bytes short of a "
                f"{n}-byte read"
            )
        received += got
    return buf


def recv_message(sock):
    """Read one message from a blocking socket.

    Returns ``None`` on a clean EOF between frames; raises
    :class:`TruncatedFrame` when the stream dies inside one.
    """
    header = _recv_exact(sock, HEADER_BYTES)
    if header is None:
        return None
    length = decode_header(header)
    payload = _recv_exact(sock, length) if length else b""
    if length and payload is None:
        raise TruncatedFrame(f"EOF before a {length}-byte payload")
    return decode_payload(payload)


def send_message(sock, message) -> None:
    """Write one message to a blocking socket as a single frame.

    Header and payload go out as a scatter write (``sendmsg``) so the
    payload — which for a checkpoint base is the whole shard — is never
    copied into a joined ``header + payload`` buffer.  Platforms without
    ``sendmsg`` fall back to two ``sendall`` calls (still copy-free).
    """
    header, payload = encode_parts(message)
    sendmsg = getattr(sock, "sendmsg", None)
    if sendmsg is None:  # pragma: no cover - non-POSIX sockets
        sock.sendall(header)
        sock.sendall(payload)
        return
    buffers = [memoryview(header), memoryview(payload)]
    while buffers:
        sent = sendmsg(buffers)
        while sent:
            head = buffers[0]
            if sent >= len(head):
                sent -= len(head)
                buffers.pop(0)
            else:
                buffers[0] = head[sent:]
                sent = 0
        while buffers and not len(buffers[0]):
            buffers.pop(0)


# -- asyncio stream I/O (gateway side) -----------------------------------------


async def read_message_async(reader):
    """Read one message from an :class:`asyncio.StreamReader`.

    Returns ``None`` on a clean EOF between frames; raises
    :class:`TruncatedFrame` when the worker died mid-frame.
    """
    import asyncio

    try:
        header = await reader.readexactly(HEADER_BYTES)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise TruncatedFrame(
            f"EOF after {len(exc.partial)} header bytes"
        ) from exc
    length = decode_header(header)
    if not length:
        return decode_payload(b"")
    try:
        payload = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise TruncatedFrame(
            f"EOF {length - len(exc.partial)} bytes short of a "
            f"{length}-byte payload"
        ) from exc
    return decode_payload(payload)
