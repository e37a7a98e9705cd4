"""Checkpointed, journaled ingestion (crash-consistent ``insert_batch``).

Durability protocol
-------------------
The ingestor owns a directory with two files:

``journal.log``
    A write-ahead log of ingestion chunks, one length-framed binary
    record per chunk, little-endian::

        magic b"DVJ\\x01" | seq u64 | n u32 | flags u32
        | n canonical keys u32 | n counts i64 (when flags & 1)
        | CRC32 u32 over everything before it

    The keys are the chunk's canonical keys
    (:func:`~repro.core.kernel.canonical_keys`): ints in ``[1, 2^32)``,
    which ``canonical_key`` passes through unchanged, so a replayed
    record builds the same state whatever the original key types were.
    The counts column is left out when every count is 1.  Every record
    is **fsynced before the chunk touches the sketch**, so a chunk either
    reached stable storage in full, or (a torn final record) was never
    applied anywhere and the caller re-sends it.  A chunk is first
    checked against what the sketch would refuse (a key it cannot
    canonicalize, a count outside ``[1, 2^63)``, a ``total_count``
    leaving int64), so the journal never holds a record that replay
    cannot apply.

    Journals written before the binary records hold one CRC-prefixed
    JSON line per chunk (``{"crc": "…", "counts": 1, "keys": [42,
    "s:flow-9"], "seq": 7}``).  Recovery still replays them, then
    checkpoints at once, which truncates the journal: a journal file
    never holds both formats.

``checkpoint.json``
    The newest durable sketch snapshot::

        {"format": 2, "applied_seq": 7, "items_ingested": 57344,
         "sketch": "…base64 wire-v3 blob…", "crc": "…"}

    Recovery also reads format 1, which embeds the v2 state dict as
    ``"state"`` in place of ``"sketch"``.

    Written atomically (temp file → flush → fsync → ``os.replace`` →
    directory fsync), so a crash at any instant leaves either the old or
    the new checkpoint on disk, never a hybrid.  After a successful
    checkpoint the journal is truncated: the snapshot supersedes it.

Recovery (performed by the constructor whenever the directory already
holds state) loads the checkpoint, verifies both its own CRC and the
embedded sketch's digest, replays every journal record with
``seq > applied_seq``, and discards a torn final record.  Because chunk
boundaries are recorded exactly and replay applies each record through
``insert_batch(PairColumns(keys, counts), chunk_size=len(keys))`` — the
same call the live path makes — the recovered sketch's
:meth:`~repro.core.davinci.DaVinciSketch.to_state` is **byte-identical**
to an uninterrupted run over the same stream.  A final record that is
short (its declared length runs past the end of the file) or fails its
CRC is a torn tail.  A corrupt record *before* the tail is not a crash
artifact (fsynced bytes don't un-write themselves) and raises
:class:`~repro.common.errors.CheckpointError`; so do a header no write
could make, a sequence gap, and torn-looking bytes with a whole record
after them.  A header's ``n`` is checked against the bytes read before
anything is sized by it.

Checkpoint cadence is configurable by items and/or seconds; pass
``clock`` to make time-based cadence deterministic in tests, and
``crash_hook`` to receive a callback after every durable step (the fault
harness in :mod:`repro.testing.faults` raises from there to simulate a
crash at that exact point).
"""

from __future__ import annotations

import base64
import json
import os
import struct
import time
import zlib
from types import TracebackType
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Type,
    Union,
)

from repro.common.errors import CheckpointError, ConfigurationError
from repro.common.validation import INT64_MAX, require_int64
from repro.core import serialization
from repro.core.config import DaVinciConfig
from repro.core.davinci import DaVinciSketch, PairColumns, column_reader
from repro.core.kernel import canonical_keys, np
from repro.observability import instruments as _obs_instruments
from repro.observability import metrics as _obs
from repro.observability.instruments import IngestorMetrics
from repro.observability.metrics import MetricsRegistry

try:  # optional accelerator: ~2x faster checkpoint encoding
    import orjson as _fastjson
except ImportError:  # pragma: no cover - exercised where orjson is absent
    _fastjson = None  # type: ignore[assignment]

#: journal file name inside the ingestor directory
JOURNAL_FILENAME = "journal.log"

#: checkpoint file name inside the ingestor directory
CHECKPOINT_FILENAME = "checkpoint.json"

#: checkpoint record format version: the sketch as a base64 wire-v3 blob
_CHECKPOINT_FORMAT = 2

#: the previous format, still recovered: the sketch as a v2 state dict
_JSON_STATE_CHECKPOINT_FORMAT = 1

#: digest of checkpointed sketches: the checkpoint file carries its own
#: CRC and is not a transport format, so the cheaper algorithm fits the
#: write rate
_CHECKPOINT_DIGEST = "crc32"

IngestKey = Union[int, str, bytes]
CrashHook = Callable[[str], None]

#: a chunk as the journal holds it: canonical keys, and int64 counts or
#: ``None`` when every count is 1
Chunk = Tuple[Any, Optional[Any]]

#: every durable JSON record begins with ``{"crc":"xxxxxxxx",`` (18 bytes)
_CRC_PREFIX_LEN = 18

#: a binary journal record: magic and version, ``seq``, ``n``, flags,
#: then the keys column, the optional counts column and a CRC32 over all
#: of it (see the module docstring)
_RECORD_MAGIC = b"DVJ\x01"
_RECORD_HEADER = struct.Struct("<4sQII")
_RECORD_CRC = struct.Struct("<I")
#: flags bit: the record carries a counts column
_HAS_COUNTS = 1
_KEY_DTYPE = np.dtype("<u4")
_COUNT_DTYPE = np.dtype("<i8")


def _dumps_payload(payload: Dict[str, Any]) -> bytes:
    """Compact JSON encode of a payload mapping (orjson when available).

    The CRC scheme covers the *written bytes*, so the two encoders never
    need to agree byte-for-byte — a file written with one loads fine
    under the other.  orjson rejects ints beyond 64 bits; those rare
    records fall back to the stdlib encoder.
    """
    if _fastjson is not None:
        try:
            return _fastjson.dumps(payload)
        except TypeError:  # e.g. a key above 2**63 — correctness first
            pass
    return json.dumps(
        payload, separators=(",", ":"), ensure_ascii=False
    ).encode("utf-8")


def _loads_payload(blob: bytes) -> Any:
    """Decode payload bytes; ``None`` when they are not JSON at all."""
    if _fastjson is not None:
        try:
            return _fastjson.loads(blob)
        except ValueError:  # e.g. 64-bit overflow — retry with stdlib
            pass
    try:
        return json.loads(blob)
    except ValueError:
        return None


def _crc_line(payload: Dict[str, Any]) -> bytes:
    """Encode a payload with its CRC32 spliced in as the first field.

    The payload is dumped once; the CRC is computed over those exact
    bytes and grafted on by string surgery — ``{"crc":"…",`` in front of
    ``blob[1:]``.  Readers re-derive the payload bytes by the inverse
    splice and verify the checksum against them, so no canonical
    re-encode is ever needed.  Checkpoints are written this way, and so
    were the journal records of the JSON format.
    """
    blob = _dumps_payload(payload)
    crc = zlib.crc32(blob) & 0xFFFFFFFF
    return ('{"crc":"%08x",' % crc).encode("ascii") + blob[1:]


def _split_crc_blob(blob: bytes) -> Optional[bytes]:
    """Verify a :func:`_crc_line` prefix; return payload bytes or None."""
    if (
        len(blob) < _CRC_PREFIX_LEN
        or not blob.startswith(b'{"crc":"')
        or blob[16:18] != b'",'
    ):
        return None
    try:
        crc = int(blob[8:16], 16)
    except ValueError:
        return None
    payload = b"{" + blob[_CRC_PREFIX_LEN:]
    if crc != zlib.crc32(payload) & 0xFFFFFFFF:
        return None
    return payload


def _bad_count(count: object) -> int:
    """Raise for a count the journal cannot hold (see :func:`count_column`)."""
    raise ConfigurationError(
        f"ingest count must be an int in [1, 2^63), got {count!r}"
    )


def count_column(
    counts: Sequence[Any], check: Callable[[object], int]
) -> Tuple[Optional[Any], int]:
    """``(counts as int64, their exact total)``; the array is ``None``
    when every count is 1.

    An integer array inside ``[1, 2^63)`` passes with one vectorized
    check.  Otherwise a count that is not an ``int`` in ``[1, 2^63)``
    goes to ``check``, which returns it as one or raises, before the
    array exists.
    """
    n = len(counts)
    if (
        isinstance(counts, np.ndarray)
        and counts.dtype.kind in "iu"
        and n
        and int(counts.min()) >= 1
        and int(counts.max()) <= INT64_MAX
    ):
        column = counts.astype(np.int64)
    else:
        if isinstance(counts, np.ndarray):
            counts = counts.tolist()
        column = np.array(
            [
                count
                if type(count) is int and 0 < count <= INT64_MAX
                else check(count)
                for count in counts
            ],
            dtype=np.int64,
        )
    if n and int(column.max()) <= INT64_MAX // n:
        total = int(column.sum())  # cannot wrap
    else:
        total = sum(column.tolist())
    return (None if total == n else column), total


def _decode_key(raw: object) -> IngestKey:
    """Invert the JSON format's ``keys`` encoding; raise
    ``CheckpointError`` on bad shape."""
    if type(raw) is int:
        return raw
    if isinstance(raw, str):
        if raw.startswith("s:"):
            return raw[2:]
        if raw.startswith("b:"):
            try:
                return base64.b64decode(raw[2:].encode("ascii"), validate=True)
            except (ValueError, UnicodeEncodeError) as exc:
                raise CheckpointError(
                    f"journal record holds undecodable bytes key {raw!r}"
                ) from exc
    raise CheckpointError(f"journal record holds malformed key {raw!r}")


def _parse_record(
    blob: bytes, offset: int
) -> Tuple[int, Optional[Tuple[int, Chunk]]]:
    """The binary record at ``offset``: ``(its end, (seq, chunk))``.

    The parse is ``None`` when the bytes from ``offset`` could be a torn
    final record: fewer than a header, a declared length past the end of
    ``blob``, or a CRC that fails on a record ending exactly there.  A
    header that no write could have made (bad magic, ``n`` or ``seq``
    below 1, unknown flags), a CRC that fails on a record with bytes
    after it, or impossible fields under a valid CRC raise
    ``CheckpointError``.  ``n`` is checked against the bytes left before
    anything is sized by it; the columns are views into ``blob``.
    """
    left = len(blob) - offset
    if left < _RECORD_HEADER.size:
        if _RECORD_MAGIC.startswith(blob[offset : offset + 4]):
            return len(blob), None
        raise CheckpointError(
            f"journal byte {offset} does not start a binary record"
        )
    magic, seq, n, flags = _RECORD_HEADER.unpack_from(blob, offset)
    if magic != _RECORD_MAGIC or seq < 1 or n < 1 or flags & ~_HAS_COUNTS:
        raise CheckpointError(
            f"journal byte {offset} holds an impossible record header "
            f"(magic={magic!r}, seq={seq}, n={n}, flags={flags})"
        )
    width = _KEY_DTYPE.itemsize + (
        _COUNT_DTYPE.itemsize if flags & _HAS_COUNTS else 0
    )
    body_end = offset + _RECORD_HEADER.size + n * width
    end = body_end + _RECORD_CRC.size
    if end > len(blob):
        return len(blob), None
    (crc,) = _RECORD_CRC.unpack_from(blob, body_end)
    if crc != zlib.crc32(memoryview(blob)[offset:body_end]):
        if end == len(blob):
            return end, None
        raise CheckpointError(
            f"journal record at byte {offset} is corrupt but not the final "
            "record — fsynced records cannot tear; storage corruption"
        )
    at = offset + _RECORD_HEADER.size
    keys = np.frombuffer(blob, dtype=_KEY_DTYPE, count=n, offset=at)
    counts = None
    if flags & _HAS_COUNTS:
        counts = np.frombuffer(
            blob, dtype=_COUNT_DTYPE, count=n, offset=at + keys.nbytes
        )
        if int(counts.min()) < 1:
            raise CheckpointError(f"journal record {seq} holds a count below 1")
    if not keys.all():
        raise CheckpointError(f"journal record {seq} holds the key 0")
    return end, (seq, (keys, counts))


def _record_follows(blob: bytes, start: int) -> bool:
    """Whether a whole, CRC-valid binary record begins past ``start``.

    A torn record is the last bytes ever written, so a record after
    bytes that read as torn shows them to be corruption instead.
    """
    at = blob.find(_RECORD_MAGIC, start)
    while at >= 0:
        try:
            _end, parsed = _parse_record(blob, at)
        except CheckpointError:
            parsed = None
        if parsed is not None:
            return True
        at = blob.find(_RECORD_MAGIC, at + 1)
    return False


def _binary_records(blob: bytes) -> Tuple[List[Tuple[int, Chunk]], int]:
    """The records of a binary journal and the length they span; bytes
    past that length are a torn final record."""
    records: List[Tuple[int, Chunk]] = []
    offset = 0
    while offset < len(blob):
        end, parsed = _parse_record(blob, offset)
        if parsed is None:
            if _record_follows(blob, offset + 1):
                raise CheckpointError(
                    f"journal record at byte {offset} reads as torn, but a "
                    "whole record follows it; storage corruption"
                )
            break
        records.append(parsed)
        offset = end
    return records, offset


class ColumnBuffer:
    """Canonical key arrays and their int64 counts, held in stream order.

    ``counts`` stays ``None`` while every held count is 1; the first
    weighted piece fills in the ones before it.
    """

    __slots__ = ("keys", "counts", "items")

    def __init__(self) -> None:
        self.keys: List[Any] = []
        self.counts: Optional[List[Any]] = None
        self.items = 0

    def hold(self, keys: Any, counts: Optional[Any]) -> None:
        if counts is not None and self.counts is None:
            self.counts = [np.ones(self.items, dtype=np.int64)]
        if self.counts is not None:
            self.counts.append(
                np.ones(len(keys), dtype=np.int64) if counts is None else counts
            )
        self.keys.append(keys)
        self.items += len(keys)

    def take(self) -> Chunk:
        """Empty the buffer; its columns as one array each."""
        keys = _joined(self.keys)
        counts = None if self.counts is None else _joined(self.counts)
        self.keys, self.counts, self.items = [], None, 0
        return keys, counts


def _joined(pieces: List[Any]) -> Any:
    """One array of ``pieces`` (the piece itself when there is one)."""
    return pieces[0] if len(pieces) == 1 else np.concatenate(pieces)


def _apply(sketch: DaVinciSketch, keys: Any, counts: Optional[Any]) -> None:
    """Apply one journal record's chunk: the one call the live path and
    replay both make, so their states are byte-identical."""
    sketch.insert_batch(PairColumns(keys, counts), chunk_size=len(keys))


def _fsync_dir(path: str) -> None:
    """Flush directory metadata (the rename itself) to stable storage."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform-dependent (e.g. NFS)
        pass
    finally:
        os.close(fd)


class CheckpointingIngestor:
    """Crash-consistent wrapper around :meth:`DaVinciSketch.insert_batch`.

    Parameters
    ----------
    config:
        Shared sketch configuration.  When the directory already holds a
        checkpoint, its embedded config must match — recovery into a
        differently-shaped sketch would silently corrupt every estimate.
    directory:
        Where the journal and checkpoint live.  Created if missing.
    checkpoint_every_items:
        Checkpoint after at least this many pairs since the last one
        (``None`` disables the item trigger).  The default is generous
        because a checkpoint costs time proportional to the *sketch*
        size, not the increment — over-checkpointing a small sketch
        taxes every ingested item while shortening an already-fast
        replay.
    checkpoint_every_seconds:
        Checkpoint when this much ``clock`` time elapsed since the last
        one (``None`` disables the time trigger).  Both triggers are
        evaluated at chunk boundaries only.
    journal_chunk_items:
        Pairs per journal record — the granularity of both fsyncs and
        crash-replay.  Chunk boundaries are part of the byte-identity
        contract: runs being compared must use the same value.  Larger
        chunks amortize the per-record fsync (the dominant durability
        cost) at the price of a larger volatile buffer to re-send after
        a crash.
    clock:
        Monotonic time source for the seconds trigger (injectable).
    crash_hook:
        Called with a label after every durable step; the fault harness
        raises from here to simulate crashes.
    metrics_registry:
        Optional private :class:`~repro.observability.metrics.MetricsRegistry`
        for the durability telemetry (and, propagated, the wrapped
        sketch's layer counters).  ``None`` uses the process-global
        default registry; collection only happens while
        :mod:`repro.observability.metrics` is enabled.
    """

    #: lazily-created metrics bundle (class-level default; see
    #: repro.observability — collection is free while disabled)
    _obs_metrics: Optional[IngestorMetrics] = None
    #: injectable registry override (None → the process-global default)
    _obs_registry: Optional[MetricsRegistry] = None

    def __init__(
        self,
        config: DaVinciConfig,
        directory: Union[str, os.PathLike],
        *,
        checkpoint_every_items: Optional[int] = 262144,
        checkpoint_every_seconds: Optional[float] = None,
        journal_chunk_items: int = 16384,
        clock: Callable[[], float] = time.monotonic,
        crash_hook: Optional[CrashHook] = None,
        metrics_registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if checkpoint_every_items is not None and checkpoint_every_items < 1:
            raise ConfigurationError(
                "checkpoint_every_items must be >= 1 (or None to disable)"
            )
        if (
            checkpoint_every_seconds is not None
            and checkpoint_every_seconds <= 0
        ):
            raise ConfigurationError(
                "checkpoint_every_seconds must be positive (or None)"
            )
        if journal_chunk_items < 1:
            raise ConfigurationError("journal_chunk_items must be >= 1")
        self.config = config
        self.directory = os.fspath(directory)
        self.checkpoint_every_items = checkpoint_every_items
        self.checkpoint_every_seconds = checkpoint_every_seconds
        self.journal_chunk_items = journal_chunk_items
        self._clock = clock
        self._crash_hook = crash_hook
        self._obs_registry = metrics_registry

        os.makedirs(self.directory, exist_ok=True)
        self._journal_path = os.path.join(self.directory, JOURNAL_FILENAME)
        self._checkpoint_path = os.path.join(
            self.directory, CHECKPOINT_FILENAME
        )

        #: pairs consumed from the stream and durably accounted for; after
        #: a crash, resume ingestion from ``stream[items_ingested:]``
        self.items_ingested: int = 0
        #: sequence number of the newest applied journal record
        self.applied_seq: int = 0
        #: True when the constructor rebuilt state from disk
        self.recovered: bool = False

        #: the journal on disk is in the JSON format (written before the
        #: binary records); set by recovery
        self._json_journal = False
        self.sketch: DaVinciSketch = self._recover()
        #: canonical keys and counts not yet journaled
        self._pending = ColumnBuffer()
        #: the buffered keys' total count
        self._pending_units = 0
        self._items_at_checkpoint = self.items_ingested
        self._time_at_checkpoint = self._clock()
        self._journal_file = open(self._journal_path, "ab")
        self._closed = False
        if self._json_journal:
            # One format per journal file: the snapshot supersedes the
            # JSON records and truncates them before any binary record.
            self.checkpoint()

    # ------------------------------------------------------------------ #
    # observability (free while disabled)
    # ------------------------------------------------------------------ #
    def _observe(self) -> IngestorMetrics:
        """The lazily-bound metrics bundle (armed paths only)."""
        bundle = self._obs_metrics
        if bundle is None:
            bundle = _obs_instruments.ingestor_metrics(self._obs_registry)
            self._obs_metrics = bundle
        return bundle

    # ------------------------------------------------------------------ #
    # recovery
    # ------------------------------------------------------------------ #
    def _recover(self) -> DaVinciSketch:
        had_state = False
        checkpoint = self._load_checkpoint()
        if checkpoint is not None:
            had_state = True
            if checkpoint["format"] == _JSON_STATE_CHECKPOINT_FORMAT:
                sketch = serialization.from_state(checkpoint["state"])
            else:
                sketch = serialization.from_wire(checkpoint["sketch"])
            if sketch.config != self.config:
                raise ConfigurationError(
                    "checkpoint was written by a differently-configured "
                    "sketch; refusing to recover into mismatched shapes"
                )
            self.applied_seq = checkpoint["applied_seq"]
            self.items_ingested = checkpoint["items_ingested"]
        else:
            sketch = DaVinciSketch(self.config)
        if self._obs_registry is not None:
            # from_state builds with the default registry; rebind the
            # whole stack to this ingestor's private one.
            sketch._obs_registry = self._obs_registry
            sketch.fp._obs_registry = self._obs_registry
            sketch.ef._obs_registry = self._obs_registry
            sketch.ifp._obs_registry = self._obs_registry
        replayed_records = 0
        replayed_items = 0
        for seq, (keys, counts) in self._replayable_records():
            had_state = True
            if seq <= self.applied_seq:
                continue
            if seq != self.applied_seq + 1:
                raise CheckpointError(
                    f"journal gap: expected record {self.applied_seq + 1}, "
                    f"found {seq} — the log was externally modified"
                )
            _apply(sketch, keys, counts)
            self.applied_seq = seq
            self.items_ingested += len(keys)
            replayed_records += 1
            replayed_items += len(keys)
        self.recovered = had_state
        if _obs.ENABLED and had_state:
            bundle = self._observe()
            bundle.recoveries.inc()
            bundle.replayed_records.set(replayed_records)
            bundle.replayed_items.set(replayed_items)
        return sketch

    def _load_checkpoint(self) -> Optional[Dict[str, Any]]:
        try:
            with open(self._checkpoint_path, "rb") as handle:
                blob = handle.read()
        except FileNotFoundError:
            return None
        payload_blob = _split_crc_blob(blob)
        if payload_blob is None:
            raise CheckpointError(
                "checkpoint CRC prefix is malformed or the checksum does "
                "not match its payload; the atomic write protocol cannot "
                "produce this — storage corruption"
            )
        record = _loads_payload(payload_blob)
        if not isinstance(record, dict):
            raise CheckpointError("checkpoint file holds a non-mapping")
        checkpoint_format = record.get("format")
        if checkpoint_format == _JSON_STATE_CHECKPOINT_FORMAT:
            sketch_ok = isinstance(record.get("state"), dict)
        elif checkpoint_format == _CHECKPOINT_FORMAT:
            try:
                record["sketch"] = base64.b64decode(
                    record.get("sketch"), validate=True
                )
                sketch_ok = True
            except (TypeError, ValueError):
                sketch_ok = False
        else:
            raise CheckpointError(
                f"unsupported checkpoint format {checkpoint_format!r}"
            )
        applied_seq = record.get("applied_seq")
        items = record.get("items_ingested")
        if (
            not isinstance(applied_seq, int)
            or isinstance(applied_seq, bool)
            or applied_seq < 0
            or not isinstance(items, int)
            or isinstance(items, bool)
            or items < 0
            or not sketch_ok
        ):
            raise CheckpointError("checkpoint fields are malformed")
        return record

    def _replayable_records(self) -> Iterator[Tuple[int, Chunk]]:
        """Yield valid ``(seq, (keys, counts))`` records; trim a torn tail.

        The valid prefix length is tracked so a torn tail (crash mid-append)
        can be truncated away before new records are appended — otherwise
        the next append would graft fresh bytes onto the partial record.
        A journal whose first byte is ``{`` is read as the JSON format.
        """
        try:
            with open(self._journal_path, "rb") as handle:
                blob = handle.read()
        except FileNotFoundError:
            return
        if blob[:1] == b"{":
            self._json_journal = True
            records, valid_length = self._json_records(blob)
        else:
            records, valid_length = _binary_records(blob)
        if valid_length < len(blob):
            with open(self._journal_path, "r+b") as handle:
                handle.truncate(valid_length)
                handle.flush()
                os.fsync(handle.fileno())
        yield from records

    def _json_records(
        self, blob: bytes
    ) -> Tuple[List[Tuple[int, Chunk]], int]:
        """The records of a JSON-format journal and the length they span;
        a torn final line lies past that length."""
        lines = blob.split(b"\n")
        # A complete journal ends with a newline, so a well-formed read
        # yields a trailing empty chunk; anything else is a torn tail.
        chunks = lines[:-1]
        valid_length = 0
        records: List[Tuple[int, Chunk]] = []
        for index, line in enumerate(chunks):
            if line.startswith(_RECORD_MAGIC):
                raise CheckpointError(
                    f"journal line {index} is a binary record in a JSON "
                    "journal; a journal holds one format"
                )
            parsed = self._parse_journal_line(line)
            if parsed is None:
                if index == len(chunks) - 1 and not lines[-1]:
                    break
                raise CheckpointError(
                    f"journal record {index} is corrupt but not the final "
                    "line — fsynced records cannot tear; storage corruption"
                )
            records.append(parsed)
            valid_length += len(line) + 1
        return records, valid_length

    def _parse_journal_line(self, line: bytes) -> Optional[Tuple[int, Chunk]]:
        """One JSON journal line → ``(seq, (keys, counts))``, or None when
        torn."""
        payload_blob = _split_crc_blob(line)
        if payload_blob is None:
            return None
        record = _loads_payload(payload_blob)
        if not isinstance(record, dict):
            return None
        seq = record.get("seq")
        raw_keys = record.get("keys")
        raw_counts = record.get("counts")
        if (
            not isinstance(seq, int)
            or isinstance(seq, bool)
            or seq < 1
            or not isinstance(raw_keys, list)
            or not raw_keys
        ):
            # CRC-valid yet semantically impossible: not a torn line.
            raise CheckpointError(
                f"journal record carries impossible fields (seq={seq!r})"
            )
        decoded = [_decode_key(raw) for raw in raw_keys]
        if type(raw_counts) is int and raw_counts == 1:
            return seq, (decoded, None)
        if (
            not isinstance(raw_counts, list)
            or len(raw_counts) != len(raw_keys)
            or not all(
                type(count) is int and count >= 1 for count in raw_counts
            )
        ):
            raise CheckpointError(
                f"journal record {seq} carries malformed counts"
            )
        return seq, (decoded, raw_counts)

    # ------------------------------------------------------------------ #
    # ingestion
    # ------------------------------------------------------------------ #
    def ingest(self, pairs: Iterable[Tuple[object, int]]) -> int:
        """Accept ``(key, count)`` pairs; return the number accepted.

        Pairs accumulate in a volatile buffer; every time the buffer
        reaches ``journal_chunk_items`` it is journaled (fsynced) and
        *then* applied to the sketch, keeping chunk boundaries aligned to
        absolute stream position regardless of how the caller splits
        ``ingest`` calls — the alignment the byte-identity contract rests
        on.  Call :meth:`flush` at end of stream to commit the partial
        tail.  A crash loses only the unjournaled buffer, which
        :attr:`items_ingested` never counted: resume from
        ``stream[items_ingested:]``.  Each count must be an ``int`` in
        ``[1, 2^63)``; a slice holding any other, or a key or total the
        journal would refuse, raises with none of it buffered and the
        keys buffered before it kept.  A
        :class:`~repro.core.davinci.PairColumns` is read as columns: an
        integer key array and an int64 counts array stay arrays.
        """
        return self._ingest(pairs)

    def ingest_keys(self, keys: Iterable[object]) -> int:
        """Accept single occurrences (``count=1`` per key).

        :meth:`ingest` without the counts column; a list, tuple or
        integer array of keys is sliced, not iterated.
        """
        return self._ingest(PairColumns(keys))

    def _ingest(self, pairs: Iterable[Tuple[object, int]]) -> int:
        """The buffering loop behind :meth:`ingest` and :meth:`ingest_keys`.

        Each pass takes what the buffer lacks of a full chunk and
        canonicalizes it at once (:func:`~repro.core.kernel.canonical_keys`,
        which raises the sketch's ``ConfigurationError`` for a key it
        cannot map); a full chunk arriving on an empty buffer is
        committed without a copy.  A pass the journal would refuse — a bad
        key or count, or a ``total_count`` leaving int64 — raises with
        none of it buffered: the buffer stays as the pass found it, so
        keys accepted earlier are still committed by the next full chunk
        or :meth:`flush`.
        """
        self._require_open()
        accepted = 0
        chunk_items = self.journal_chunk_items
        take = column_reader(pairs)
        while True:
            keys, counts = take(chunk_items - self._pending.items)
            if not len(keys):
                return accepted
            units = len(keys)
            if counts is not None:
                counts, units = count_column(counts, _bad_count)
            canonical = canonical_keys(keys)
            require_int64(
                "total_count",
                self.sketch.total_count + self._pending_units + units,
            )
            accepted += len(canonical)
            if not self._pending.items and len(canonical) == chunk_items:
                self._commit(canonical, counts)
            else:
                self._pending.hold(canonical, counts)
                self._pending_units += units
                if self._pending.items < chunk_items:
                    continue
                self.flush()
            if self._checkpoint_due():
                self.checkpoint()

    def flush(self) -> None:
        """Commit the buffered partial chunk (journal, fsync, apply).

        Meant for end of stream; a mid-stream flush commits a chunk at a
        non-aligned boundary, which breaks byte-identity with runs that
        did not flush at the same position (the recovery itself stays
        correct — replay always mirrors whatever was journaled).
        """
        self._require_open()
        if self._pending.items:
            self._pending_units = 0
            self._commit(*self._pending.take())

    @property
    def pending_items(self) -> int:
        """Accepted pairs not yet journaled (lost on crash)."""
        return self._pending.items

    def _commit(self, keys: Any, counts: Optional[Any]) -> None:
        """Journal one chunk durably, then apply it to the sketch.

        ``keys`` are canonical (uint64) and ``counts`` int64, ``None``
        when every count is 1; both passed their checks in
        :meth:`_ingest`.  The chunk is applied by the call replay makes.
        """
        self._append_record(keys, counts)
        _apply(self.sketch, keys, counts)
        self.applied_seq += 1
        self.items_ingested += len(keys)
        if _obs.ENABLED:
            self._observe().ingested_items.inc(len(keys))
        self._hook("apply")

    def _append_record(self, keys: Any, counts: Optional[Any]) -> None:
        """Write and fsync one binary record (see the module docstring)."""
        observing = _obs.ENABLED
        started = time.perf_counter() if observing else 0.0
        columns = [np.ascontiguousarray(keys, dtype=_KEY_DTYPE)]
        if counts is not None:
            columns.append(np.ascontiguousarray(counts, dtype=_COUNT_DTYPE))
        header = _RECORD_HEADER.pack(
            _RECORD_MAGIC,
            self.applied_seq + 1,
            len(keys),
            0 if counts is None else _HAS_COUNTS,
        )
        write = self._journal_file.write
        write(header)
        crc = zlib.crc32(header)
        for column in columns:
            write(column)
            crc = zlib.crc32(column, crc)
        write(_RECORD_CRC.pack(crc))
        self._journal_file.flush()
        os.fsync(self._journal_file.fileno())
        if observing:
            bundle = self._observe()
            bundle.journal_append_seconds.observe(
                time.perf_counter() - started
            )
            bundle.journal_records.inc()
            bundle.fsyncs.inc()
        self._hook("journal:record")

    def _checkpoint_due(self) -> bool:
        every_items = self.checkpoint_every_items
        if (
            every_items is not None
            and self.items_ingested - self._items_at_checkpoint >= every_items
        ):
            return True
        every_seconds = self.checkpoint_every_seconds
        if (
            every_seconds is not None
            and self._clock() - self._time_at_checkpoint >= every_seconds
        ):
            return True
        return False

    # ------------------------------------------------------------------ #
    # checkpointing
    # ------------------------------------------------------------------ #
    def checkpoint(self) -> None:
        """Atomically persist the sketch and truncate the journal.

        Crash-safe at every instant: before the ``os.replace`` the old
        checkpoint (plus the full journal) recovers the same state; after
        it the new checkpoint supersedes the journal, whose truncation is
        merely garbage collection (records at or below ``applied_seq``
        are skipped during replay regardless).
        """
        self._require_open()
        observing = _obs.ENABLED
        started = time.perf_counter() if observing else 0.0
        payload: Dict[str, Any] = {
            "applied_seq": self.applied_seq,
            "format": _CHECKPOINT_FORMAT,
            "items_ingested": self.items_ingested,
            "sketch": base64.b64encode(
                serialization.to_wire(self.sketch, _CHECKPOINT_DIGEST)
            ).decode("ascii"),
        }
        # Single dump + CRC splice, same construction as journal lines.
        blob = _crc_line(payload)

        tmp_path = self._checkpoint_path + ".tmp"
        with open(tmp_path, "wb") as handle:
            handle.write(blob)
            handle.flush()
            os.fsync(handle.fileno())
        self._hook("checkpoint:tmp")
        os.replace(tmp_path, self._checkpoint_path)
        _fsync_dir(self.directory)
        self._hook("checkpoint:replace")

        # The snapshot covers every journaled record; drop the log.  A
        # single truncate on the live handle keeps the inode (no close/
        # reopen churn, no window where the journal path has no handle);
        # truncate() flushes the buffered writer first, and subsequent
        # O_APPEND writes land at the new end of file.  The data fsync
        # makes the empty length durable and the directory fsync covers
        # filesystems that journal size changes through the dirent.
        self._journal_file.truncate(0)
        os.fsync(self._journal_file.fileno())
        _fsync_dir(self.directory)
        self._hook("journal:truncate")

        if observing:
            bundle = self._observe()
            bundle.checkpoint_seconds.observe(time.perf_counter() - started)
            bundle.checkpoints.inc()
            # tmp-file fsync + directory fsync after replace +
            # journal-truncate fsync + directory fsync after truncate
            bundle.fsyncs.inc(4)
        self._items_at_checkpoint = self.items_ingested
        self._time_at_checkpoint = self._clock()

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Release the journal handle (idempotent; no implicit checkpoint)."""
        if not self._closed:
            self._journal_file.close()
            self._closed = True

    def __enter__(self) -> "CheckpointingIngestor":
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        # A clean exit flushes the tail and checkpoints so the journal
        # never outlives the session; an exceptional exit (including
        # injected crashes) must leave the disk exactly as the failure
        # found it.
        if exc_type is None and not self._closed:
            self.flush()
            self.checkpoint()
        self.close()

    def _hook(self, label: str) -> None:
        if self._crash_hook is not None:
            self._crash_hook(label)

    def _require_open(self) -> None:
        if self._closed:
            raise CheckpointError(
                "ingestor is closed; construct a fresh one over the "
                "directory to resume"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CheckpointingIngestor(directory={self.directory!r}, "
            f"items_ingested={self.items_ingested}, "
            f"applied_seq={self.applied_seq})"
        )
