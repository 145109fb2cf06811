"""Framed messaging between the coordinator and shard workers.

The wire format reuses the persistence layer's record framing
(:mod:`repro.persistence.format`) byte for byte::

    [u32 payload length][u32 CRC-32 of payload][payload bytes]

Little-endian, CRC-32 via ``zlib.crc32`` — the same framing the snapshot
and journal files use, so one codec (and one set of torn-frame semantics)
covers both disk and wire.  Two payload encodings share the frame:

* **JSON** — a compact-JSON object (always starts with ``{``).  Requests
  carry ``{"id": n, "kind": "...", ...}``; responses carry ``{"id": n,
  "ok": true, "result": ...}`` or ``{"id": n, "ok": false, "error":
  {"type": ..., "message": ...}}``.
* **Binary columnar** — ``RPWB | framed(head JSON) | framed(binary
  blob)``.  The head is the same JSON message dict; the blob (typically
  an ``RPCB`` column block, see
  :func:`repro.persistence.codec.encode_column_block`) rides along as
  raw bytes and surfaces on the receiver as ``message["_binary"]``.
  Because JSON payloads always start with ``{`` and binary payloads with
  ``RPWB``, the two kinds interleave unambiguously on one connection.
  Floats inside the blob are raw IEEE-754 ``float64`` bytes — no decimal
  round-trip, bit-identical by construction.  The ``apply`` and
  ``resync`` requests carry corpus records this way: the blob is a run
  of records framed as the journal frames them
  (:func:`repro.persistence.journal.encode_record`), a whole source as
  typed ``RPCS`` blocks and a partial record as JSON, which the worker
  journals as received.

Failure semantics of :class:`WireConnection`:

* a clean EOF at a frame boundary — and an EOF *inside* a frame (the
  peer died mid-send; the stream equivalent of a journal's torn tail) —
  both return ``None`` from :meth:`WireConnection.recv`: the peer is
  gone and the connection is unusable either way;
* a CRC mismatch, an implausible length, or a malformed binary envelope
  on a *live* stream raises :class:`~repro.errors.WireProtocolError` —
  framing corruption between two live processes is a protocol
  violation, never expected;
* a send to a dead peer raises :class:`~repro.errors.WireProtocolError`
  with the OS error as its cause.

Sends are serialised under a per-connection lock so a coordinator
flushing events from a mutating thread can never interleave frames with
a read-path request.  The connection counts payload bytes in each
direction (:attr:`~WireConnection.bytes_sent` /
:attr:`~WireConnection.bytes_received`) so the coordinator can account
for its on-wire volume per read.
"""

from __future__ import annotations

import json
import socket
import threading
import zlib
from typing import Any, Optional

from repro.errors import CorruptSnapshotError, WireProtocolError
from repro.persistence.format import (
    MAX_PAYLOAD_BYTES,
    RECORD_HEADER,
    json_record,
    pack_record,
    read_record,
)

__all__ = ["WireConnection", "WIRE_BINARY_MAGIC", "encode_message"]

#: Default socket timeout: long enough for a worker paying a cold
#: measure pass over a large shard, short enough that a wedged peer
#: fails the test run instead of hanging it.
DEFAULT_TIMEOUT_SECONDS = 120.0

#: Magic prefix of a binary columnar wire payload (vs ``{`` for JSON).
WIRE_BINARY_MAGIC = b"RPWB"


def encode_message(message: dict[str, Any], binary: Optional[bytes] = None) -> bytes:
    """The payload bytes of one message: JSON, or an ``RPWB`` envelope.

    With ``binary`` the JSON head and the blob are framed individually
    inside a ``RPWB`` envelope; the receiver sees the head dict with the
    blob attached under ``"_binary"``.  For :meth:`WireConnection.send_payload`.
    """
    head = json_record(message)
    if binary is None:
        return head
    return b"".join((WIRE_BINARY_MAGIC, pack_record(head), pack_record(binary)))


class WireConnection:
    """One framed duplex channel over a connected stream socket."""

    def __init__(
        self, sock: socket.socket, *, timeout: Optional[float] = DEFAULT_TIMEOUT_SECONDS
    ) -> None:
        self._socket = sock
        self._socket.settimeout(timeout)
        self._send_lock = threading.Lock()
        self._closed = False
        self._bytes_sent = 0
        self._bytes_received = 0

    @property
    def closed(self) -> bool:
        """True once :meth:`close` ran."""
        return self._closed

    @property
    def bytes_sent(self) -> int:
        """Total frame bytes written to the socket so far."""
        return self._bytes_sent

    @property
    def bytes_received(self) -> int:
        """Total frame bytes read from the socket so far."""
        return self._bytes_received

    def fileno(self) -> int:
        """The underlying socket's file descriptor."""
        return self._socket.fileno()

    # -- sending ---------------------------------------------------------------------

    def send(self, message: dict[str, Any], *, binary: Optional[bytes] = None) -> None:
        """Frame and send one message (serialised per connection).

        With ``binary`` the message travels as a binary columnar payload:
        the JSON head and the blob are framed individually inside a
        ``RPWB`` envelope, then the envelope is framed like any other
        payload.  The receiver sees the head dict with the blob attached
        under ``"_binary"``.
        """
        self.send_payload(encode_message(message, binary))

    def send_payload(self, payload: bytes) -> None:
        """Frame and send pre-encoded payload bytes (serialised per connection).

        The scatter path encodes one request payload and sends the same
        bytes to every shard — one JSON encode per fan-out instead of
        one per shard.
        """
        frame = pack_record(payload)
        try:
            with self._send_lock:
                self._socket.sendall(frame)
                self._bytes_sent += len(frame)
        except OSError as exc:
            raise WireProtocolError(f"send failed, peer is gone: {exc}") from exc

    # -- receiving -------------------------------------------------------------------

    def _recv_exact(self, count: int) -> Optional[bytes]:
        """Read exactly ``count`` bytes; None when the peer closed first."""
        try:
            chunk = self._socket.recv(count) if count else b""
        except (ConnectionResetError, BrokenPipeError):
            return None
        if len(chunk) == count:
            return chunk  # common case: one recv, no reassembly copy
        if not chunk:
            return None
        chunks = [chunk]
        remaining = count - len(chunk)
        while remaining:
            try:
                chunk = self._socket.recv(remaining)
            except (ConnectionResetError, BrokenPipeError):
                return None
            if not chunk:
                return None
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    @staticmethod
    def _unwrap_binary(payload: bytes) -> tuple[bytes, Optional[bytes]]:
        """Split a ``RPWB`` envelope into (head JSON bytes, blob bytes)."""
        offset = len(WIRE_BINARY_MAGIC)
        try:
            head, offset = read_record(payload, offset, strict=True)
            blob, offset = read_record(payload, offset, strict=True)
        except CorruptSnapshotError as exc:
            raise WireProtocolError(f"malformed binary wire envelope: {exc}") from exc
        if offset != len(payload):
            raise WireProtocolError("trailing bytes after binary wire envelope")
        return head, blob

    def recv(self) -> Optional[dict[str, Any]]:
        """Receive one message; None when the peer is gone (EOF / torn frame).

        Binary columnar payloads come back as their head dict with the
        raw blob attached under ``"_binary"``.
        """
        header = self._recv_exact(RECORD_HEADER.size)
        if header is None:
            return None
        length, checksum = RECORD_HEADER.unpack(header)
        if length > MAX_PAYLOAD_BYTES:
            raise WireProtocolError(f"implausible wire frame length {length}")
        payload = self._recv_exact(length)
        if payload is None:
            return None
        self._bytes_received += RECORD_HEADER.size + length
        # Same check read_record performs, without re-concatenating the
        # header onto the payload (that copy is pure overhead per frame).
        if zlib.crc32(payload) != checksum:
            raise WireProtocolError("wire frame CRC mismatch")
        binary: Optional[bytes] = None
        head = payload
        if head[: len(WIRE_BINARY_MAGIC)] == WIRE_BINARY_MAGIC:
            head, binary = self._unwrap_binary(head)
        try:
            message = json.loads(head.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise WireProtocolError(f"undecodable wire message: {exc}") from exc
        if not isinstance(message, dict):
            raise WireProtocolError(
                f"wire message must be a JSON object, got {type(message).__name__}"
            )
        if binary is not None:
            message["_binary"] = binary
        return message

    def close(self) -> None:
        """Close the underlying socket (idempotent)."""
        if not self._closed:
            self._closed = True
            try:
                self._socket.close()
            except OSError:  # pragma: no cover - close failures are ignorable
                pass
