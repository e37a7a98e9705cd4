"""Length-prefixed, CRC-framed request/response protocol.

Frame layout (all integers big-endian)::

    offset  size  field
    0       2     magic  b"DV"
    2       1     protocol version (currently 1)
    3       4     payload length N
    7       4     CRC32 of the payload bytes
    11      N     payload

Payload layout::

    offset  size  field
    0       4     header length H
    4       H     header: one UTF-8 JSON object
    4+H     rest  blob: raw bytes (a wire-v3 sketch blob, or empty)

The header carries the message semantics (``op``/``status`` plus
request fields); the blob carries bulk binary state untouched — no
base64, no JSON escaping.  The frame CRC covers the whole payload, so a
single flipped bit anywhere in transit surfaces as
:class:`~repro.common.errors.TransportError` *before* any decoding, and
a corrupted PUSH can be rejected and retried instead of poisoning an
aggregate (the blob's own embedded digest then guards the hop between a
valid frame and a valid sketch).

Every read takes an optional :class:`~repro.service.deadline.Deadline`
and sizes the socket timeout from the remaining budget, so a peer that
stops sending mid-frame costs exactly the caller's budget, never a
hung thread.
"""

from __future__ import annotations

import json
import socket
import struct
import zlib
from typing import Any, Dict, Optional, Tuple

from repro.common.errors import (
    ConfigurationError,
    DeadlineExceededError,
    TransportError,
)
from repro.service.deadline import Deadline

__all__ = [
    "MAGIC",
    "VERSION",
    "MAX_FRAME_BYTES",
    "encode_message",
    "decode_payload",
    "send_message",
    "recv_message",
]

MAGIC = b"DV"
VERSION = 1

#: frame header: magic, version, payload length, payload CRC32
_FRAME_HEADER = struct.Struct(">2sBII")

#: payload prefix: JSON header length
_HEADER_LEN = struct.Struct(">I")

#: refuse frames beyond this (a corrupted length field must not make the
#: receiver try to allocate gigabytes)
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: per-read socket timeout when no deadline is supplied
DEFAULT_IO_TIMEOUT = 30.0


def encode_message(header: Dict[str, Any], blob: bytes = b"") -> bytes:
    """One full frame: header JSON + blob, CRC-framed."""
    header_bytes = json.dumps(
        header, separators=(",", ":"), sort_keys=True
    ).encode("utf-8")
    payload = _HEADER_LEN.pack(len(header_bytes)) + header_bytes + blob
    if len(payload) > MAX_FRAME_BYTES:
        raise ConfigurationError(
            f"payload of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte frame limit"
        )
    return (
        _FRAME_HEADER.pack(MAGIC, VERSION, len(payload), zlib.crc32(payload))
        + payload
    )


def decode_payload(payload: bytes) -> Tuple[Dict[str, Any], bytes]:
    """Split a CRC-verified payload into (header dict, blob bytes)."""
    if len(payload) < _HEADER_LEN.size:
        raise TransportError(
            f"payload of {len(payload)} bytes is shorter than its own "
            "header-length prefix"
        )
    (header_len,) = _HEADER_LEN.unpack_from(payload)
    end = _HEADER_LEN.size + header_len
    if end > len(payload):
        raise TransportError(
            f"declared header length {header_len} overruns the "
            f"{len(payload)}-byte payload"
        )
    try:
        header = json.loads(payload[_HEADER_LEN.size:end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise TransportError(f"undecodable message header: {exc}") from exc
    if not isinstance(header, dict):
        raise TransportError(
            f"message header must be a JSON object, got {type(header).__name__}"
        )
    return header, payload[end:]


def _io_timeout(deadline: Optional[Deadline], what: str) -> float:
    if deadline is None:
        return DEFAULT_IO_TIMEOUT
    return min(DEFAULT_IO_TIMEOUT, deadline.require(what))


def send_message(
    sock: socket.socket,
    header: Dict[str, Any],
    blob: bytes = b"",
    *,
    deadline: Optional[Deadline] = None,
) -> None:
    """Frame and send one message; transport faults raise typed errors."""
    frame = encode_message(header, blob)
    try:
        sock.settimeout(_io_timeout(deadline, "send"))
        sock.sendall(frame)
    except socket.timeout as exc:
        raise DeadlineExceededError(
            "deadline expired while sending a frame", last_error=exc
        ) from exc
    except OSError as exc:
        raise TransportError(f"send failed: {exc}") from exc


def _recv_exact(
    sock: socket.socket,
    count: int,
    deadline: Optional[Deadline],
    *,
    eof_ok: bool,
) -> Optional[bytes]:
    """Read exactly ``count`` bytes, or None on clean EOF at offset 0.

    EOF anywhere *inside* the span is a torn frame →
    :class:`TransportError`; ``eof_ok`` only legalizes EOF before the
    first byte (the peer closed between messages).
    """
    chunks = bytearray()
    while len(chunks) < count:
        try:
            sock.settimeout(_io_timeout(deadline, "recv"))
            chunk = sock.recv(count - len(chunks))
        except socket.timeout as exc:
            raise DeadlineExceededError(
                "deadline expired while awaiting a frame", last_error=exc
            ) from exc
        except OSError as exc:
            raise TransportError(f"recv failed: {exc}") from exc
        if not chunk:
            if not chunks and eof_ok:
                return None
            raise TransportError(
                f"connection closed mid-frame ({len(chunks)}/{count} bytes)"
            )
        chunks.extend(chunk)
    return bytes(chunks)


def recv_message(
    sock: socket.socket,
    *,
    deadline: Optional[Deadline] = None,
    max_frame_bytes: int = MAX_FRAME_BYTES,
    eof_ok: bool = False,
) -> Optional[Tuple[Dict[str, Any], bytes]]:
    """Read one frame; returns ``(header, blob)``.

    ``None`` means the peer closed cleanly before a new frame started
    (only when ``eof_ok`` — the server's idle-connection case).  Torn
    frames, bad magic, oversize lengths and CRC mismatches all raise
    :class:`TransportError`; a deadline/timeout raises
    :class:`DeadlineExceededError`.
    """
    head = _recv_exact(sock, _FRAME_HEADER.size, deadline, eof_ok=eof_ok)
    if head is None:
        return None
    magic, version, length, crc = _FRAME_HEADER.unpack(head)
    if magic != MAGIC:
        raise TransportError(f"bad frame magic {magic!r}")
    if version != VERSION:
        raise TransportError(
            f"unsupported protocol version {version} (expected {VERSION})"
        )
    if length > max_frame_bytes:
        raise TransportError(
            f"declared frame length {length} exceeds the "
            f"{max_frame_bytes}-byte limit"
        )
    payload = _recv_exact(sock, length, deadline, eof_ok=False)
    if payload is None:  # pragma: no cover - eof_ok=False never yields None
        raise TransportError("connection closed before the frame payload")
    if zlib.crc32(payload) != crc:
        raise TransportError(
            "frame CRC mismatch: payload corrupted in transit"
        )
    return decode_payload(payload)
