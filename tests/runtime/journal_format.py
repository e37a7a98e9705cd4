"""The journal's two on-disk formats, written out for the tests.

The binary record layout is restated here from the documentation (not
imported), so a test that reads or forges records checks the format the
docs promise.  The JSON format is the one journals were written in
before the binary records; :func:`json_journal` writes it, line for
line, for the recovery tests.
"""

from __future__ import annotations

import base64
import struct
import zlib
from typing import List, Optional, Sequence, Tuple

from repro.runtime.ingestor import _crc_line

MAGIC = b"DVJ\x01"
HEADER = struct.Struct("<4sQII")  # magic, seq, n, flags
CRC = struct.Struct("<I")
HAS_COUNTS = 1


class Record:
    """One binary record of a journal blob, by position."""

    def __init__(self, blob: bytes, offset: int) -> None:
        magic, self.seq, self.n, self.flags = HEADER.unpack_from(blob, offset)
        assert magic == MAGIC
        self.offset = offset
        width = 4 + (8 if self.flags & HAS_COUNTS else 0)
        self.body_end = offset + HEADER.size + self.n * width
        self.end = self.body_end + CRC.size
        self.bytes = blob[offset : self.end]
        (crc,) = CRC.unpack_from(blob, self.body_end)
        assert crc == zlib.crc32(blob[offset : self.body_end])

    @property
    def keys(self) -> List[int]:
        start = HEADER.size
        return list(struct.unpack_from(f"<{self.n}I", self.bytes, start))

    @property
    def counts(self) -> Optional[List[int]]:
        if not self.flags & HAS_COUNTS:
            return None
        start = HEADER.size + 4 * self.n
        return list(struct.unpack_from(f"<{self.n}q", self.bytes, start))


def records(blob: bytes) -> List[Record]:
    """Every record of a binary journal; the blob must parse whole."""
    out: List[Record] = []
    offset = 0
    while offset < len(blob):
        out.append(Record(blob, offset))
        offset = out[-1].end
    return out


def forge(
    seq: int,
    keys: Sequence[int],
    counts: Optional[Sequence[int]] = None,
    n: Optional[int] = None,
    magic: bytes = MAGIC,
) -> bytes:
    """A record with a valid CRC over whatever it is given (``n`` may
    disagree with the columns)."""
    n = len(keys) if n is None else n
    flags = 0 if counts is None else HAS_COUNTS
    body = HEADER.pack(magic, seq, n, flags)
    body += struct.pack(f"<{len(keys)}I", *keys)
    if counts is not None:
        body += struct.pack(f"<{len(counts)}q", *counts)
    return body + CRC.pack(zlib.crc32(body))


def with_n(record: Record, n: int) -> bytes:
    """``record``'s bytes with its header's ``n`` rewritten."""
    return record.bytes[:12] + struct.pack("<I", n) + record.bytes[16:]


def _json_key(key: object) -> object:
    if isinstance(key, str):
        return "s:" + key
    if isinstance(key, bytes):
        return "b:" + base64.b64encode(key).decode("ascii")
    return key


def json_line(seq: int, pairs: Sequence[Tuple[object, int]]) -> bytes:
    """One JSON-format journal line: tagged keys, and ``counts`` the
    scalar 1 when every count is 1."""
    counts = [count for _key, count in pairs]
    return (
        _crc_line(
            {
                "counts": 1 if set(counts) == {1} else counts,
                "keys": [_json_key(key) for key, _count in pairs],
                "seq": seq,
            }
        )
        + b"\n"
    )


def json_journal(
    pairs: Sequence[Tuple[object, int]], chunk: int, first_seq: int = 1
) -> bytes:
    """``pairs`` as JSON-format records of ``chunk`` pairs each."""
    return b"".join(
        json_line(first_seq + index, pairs[start : start + chunk])
        for index, start in enumerate(range(0, len(pairs), chunk))
    )
