"""Wire-protocol unit tests: framing, corruption, and budget rejection.

The satellite claim: truncated and oversized frames are rejected as
*typed* errors at the framing layer — before a byte of a sick payload
reaches pickle — and a clean EOF between frames is a distinguishable
non-error, because the gateway's failover path keys on exactly that
distinction (peer closed vs. peer died mid-sentence).
"""

from __future__ import annotations

import asyncio
import socket

import pytest

from repro.service import wire


def roundtrip(message):
    return wire.decode(wire.encode(message))


@pytest.fixture
def budget(monkeypatch):
    """Shrink the frame budget: ``budget(64)`` reaches
    :class:`~repro.service.wire.FrameTooLarge` without megabyte payloads."""
    return lambda size: monkeypatch.setattr(wire, "MAX_FRAME", size)


class TestFraming:
    def test_request_roundtrip(self):
        request = wire.Request(7, "search_boolean", ("a AND b", None))
        assert roundtrip(request) == request

    def test_response_roundtrip(self):
        response = wire.Response(7, True, value=[1, 2, 3])
        assert roundtrip(response) == response

    def test_error_response_roundtrip(self):
        response = wire.Response(9, False, error="ValueError: nope")
        assert roundtrip(response) == response

    def test_header_size_is_stable(self):
        # The frame layout is a wire contract; a drive-by struct change
        # must fail a test, not silently desynchronize mixed versions.
        assert wire.HEADER_BYTES == 8
        assert wire.MAGIC == b"RSW1"


class TestRejection:
    def test_bad_magic_rejected(self):
        frame = bytearray(wire.encode(wire.Request(1, "ping")))
        frame[0:4] = b"XXXX"
        with pytest.raises(wire.BadFrame):
            wire.decode(bytes(frame))

    def test_truncated_header_rejected(self):
        with pytest.raises(wire.TruncatedFrame):
            wire.decode_header(b"RS")

    def test_truncated_payload_rejected(self):
        frame = wire.encode(wire.Request(1, "ping"))
        with pytest.raises(wire.TruncatedFrame):
            wire.decode(frame[:-3])

    def test_oversized_encode_rejected_before_send(self, budget):
        big = wire.Request(1, "add_document", ("x" * 4096,))
        budget(64)
        with pytest.raises(wire.FrameTooLarge):
            wire.encode(big)

    def test_oversized_declared_length_rejected(self, budget):
        # The receiver refuses the frame from its header alone.
        header = wire._HEADER.pack(wire.MAGIC, 2**31)
        budget(1024)
        with pytest.raises(wire.FrameTooLarge):
            wire.decode_header(header)


class TestBlockingSocket:
    def test_send_recv_roundtrip(self):
        a, b = socket.socketpair()
        try:
            wire.send_message(a, wire.Request(3, "ping"))
            got = wire.recv_message(b)
            assert got == wire.Request(3, "ping")
        finally:
            a.close()
            b.close()

    def test_clean_eof_between_frames_is_none(self):
        a, b = socket.socketpair()
        wire.send_message(a, wire.Request(3, "ping"))
        a.close()
        try:
            assert wire.recv_message(b) == wire.Request(3, "ping")
            assert wire.recv_message(b) is None  # EOF at a boundary
        finally:
            b.close()

    def test_mid_frame_eof_is_truncated(self):
        a, b = socket.socketpair()
        frame = wire.encode(wire.Request(3, "ping"))
        a.sendall(frame[: len(frame) - 2])
        a.close()
        try:
            with pytest.raises(wire.TruncatedFrame):
                wire.recv_message(b)
        finally:
            b.close()

    def test_oversized_incoming_frame_rejected(self, budget):
        a, b = socket.socketpair()
        try:
            wire.send_message(a, wire.Request(1, "x", ("y" * 512,)))
            budget(64)
            with pytest.raises(wire.FrameTooLarge):
                wire.recv_message(b)
        finally:
            a.close()
            b.close()


class TestAsyncReader:
    def _reader_with(self, data: bytes) -> asyncio.StreamReader:
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        return reader

    def test_async_roundtrip(self):
        async def go():
            reader = self._reader_with(
                wire.encode(wire.Response(5, True, value="ok"))
            )
            return await wire.read_message_async(reader)

        assert asyncio.run(go()) == wire.Response(5, True, value="ok")

    def test_async_clean_eof_is_none(self):
        async def go():
            return await wire.read_message_async(self._reader_with(b""))

        assert asyncio.run(go()) is None

    def test_async_mid_header_eof_is_truncated(self):
        async def go():
            return await wire.read_message_async(self._reader_with(b"RS"))

        with pytest.raises(wire.TruncatedFrame):
            asyncio.run(go())

    def test_async_mid_payload_eof_is_truncated(self):
        frame = wire.encode(wire.Request(2, "ping"))

        async def go():
            return await wire.read_message_async(
                self._reader_with(frame[:-1])
            )

        with pytest.raises(wire.TruncatedFrame):
            asyncio.run(go())

    def test_async_oversized_frame_rejected(self, budget):
        frame = wire.encode(wire.Request(1, "x", ("y" * 512,)))
        budget(64)

        async def go():
            return await wire.read_message_async(self._reader_with(frame))

        with pytest.raises(wire.FrameTooLarge):
            asyncio.run(go())


class TestBatchMessages:
    """A read batch is an ordinary ``batched_read`` request: its members
    are ``(method, args)`` pairs, its reply ``(answers, version)``."""

    def test_batch_request_roundtrip(self):
        batch = wire.Request(
            41,
            "batched_read",
            (
                (
                    ("search_streamed", ("wa", None)),
                    ("search_streamed", ("wa AND wb", None)),
                ),
            ),
        )
        assert roundtrip(batch) == batch

    def test_batch_response_roundtrip(self):
        reply = wire.Response(
            41,
            True,
            value=(((True, ([1, 2], 3)), (False, "ValueError: nope")), 7),
        )
        assert roundtrip(reply) == reply
        (good, bad), version = reply.value
        assert good[0] and not bad[0] and version == 7

    def test_batch_over_socketpair(self):
        a, b = socket.socketpair()
        try:
            batch = wire.Request(
                5, "batched_read", (tuple(("ping", ()) for _ in range(16)),)
            )
            wire.send_message(a, batch)
            assert wire.recv_message(b) == batch
        finally:
            a.close()
            b.close()


class TestCopyElimination:
    def test_encode_parts_matches_encode(self):
        message = wire.Request(9, "search_boolean", ("a AND b", None))
        header, payload = wire.encode_parts(message)
        assert header + payload == wire.encode(message)
        assert len(header) == wire.HEADER_BYTES
        assert wire.decode_header(header) == len(payload)

    def test_encode_parts_enforces_frame_budget(self, budget):
        big = wire.Request(1, "add_document", ("x" * 4096,))
        budget(64)
        with pytest.raises(wire.FrameTooLarge):
            wire.encode_parts(big)

    def test_scatter_write_survives_partial_sends(self):
        """A multi-MB payload overflows the socket buffer, forcing
        ``sendmsg`` down its partial-write continuation path; the
        receiver must still see one intact frame."""
        import threading

        a, b = socket.socketpair()
        try:
            blob = b"\x5a" * (4 * 1024 * 1024)
            message = wire.Response(3, True, value=blob)
            received = []

            def drain():
                received.append(wire.recv_message(b))

            t = threading.Thread(target=drain)
            t.start()
            wire.send_message(a, message)
            t.join(timeout=30.0)
            assert received and received[0].value == blob
        finally:
            a.close()
            b.close()

    def test_recv_exact_returns_bytes_like(self):
        """``_recv_exact`` fills one preallocated buffer via
        ``recv_into`` and hands back a bytes-like object ``struct`` and
        ``pickle`` both accept — no chunk list, no join copy."""
        a, b = socket.socketpair()
        try:
            a.sendall(b"abcdef")
            got = wire._recv_exact(b, 6)
            assert isinstance(got, bytearray)
            assert bytes(got) == b"abcdef"
            assert wire._recv_exact(b, 0) == bytearray()
            a.close()
            assert wire._recv_exact(b, 4) is None  # EOF at a boundary
        finally:
            b.close()

    def test_recv_exact_mid_read_eof_is_truncated(self):
        a, b = socket.socketpair()
        try:
            a.sendall(b"abc")
            a.close()
            with pytest.raises(wire.TruncatedFrame):
                wire._recv_exact(b, 8)
        finally:
            b.close()
