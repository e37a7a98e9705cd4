"""Checkpointed, journaled ingestion (crash-consistent ``insert_batch``).

Durability protocol
-------------------
The ingestor owns a directory with two files:

``journal.log``
    A write-ahead log of ingestion chunks, one JSON record per line::

        {"crc": "…", "counts": 1, "keys": [42, "s:flow-9"], "seq": 7}

    ``keys`` stores integer keys natively and tags the rest ("s:" for
    strings, "b:" for base64 bytes); ``counts`` is the scalar ``1`` for
    the ubiquitous all-singletons chunk, or a parallel list of positive
    integers otherwise — both choices keep the hot encode path to one
    type scan and a single JSON dump (orjson when available).  Every
    record is CRC32-checksummed over the exact payload bytes written
    after the ``crc`` field — encoder-agnostic by construction — and
    **fsynced before the chunk touches the sketch**, so a chunk either
    reached stable storage in full, or (a torn final line) was never
    applied anywhere and the caller re-sends it.  A chunk is first
    checked against what the sketch would refuse (a count outside
    ``[1, 2^63)``, a ``total_count`` leaving int64), so the journal
    never holds a record that replay cannot apply.

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
``seq > applied_seq``, and discards a torn trailing line.  Because chunk
boundaries are recorded exactly and replay applies each record through
``insert_batch(pairs, chunk_size=len(pairs))`` — the same call the live
path makes — the recovered sketch's
:meth:`~repro.core.davinci.DaVinciSketch.to_state` is **byte-identical**
to an uninterrupted run over the same stream.  A corrupt record *before*
the tail is not a crash artifact (fsynced bytes don't un-write
themselves) and raises :class:`~repro.common.errors.CheckpointError`.

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
import time
import zlib
from itertools import islice, repeat
from types import TracebackType
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
    Type,
    Union,
)

from repro.common.errors import CheckpointError, ConfigurationError
from repro.common.hashing import check_texts
from repro.common.validation import INT64_MAX, require_int64
from repro.core import serialization
from repro.core.config import DaVinciConfig
from repro.core.davinci import DaVinciSketch
from repro.observability import instruments as _obs_instruments
from repro.observability import metrics as _obs
from repro.observability.instruments import IngestorMetrics
from repro.observability.metrics import MetricsRegistry

try:  # optional accelerator: ~2x faster journal/checkpoint encoding
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


#: every durable record begins with ``{"crc":"xxxxxxxx",`` (18 bytes)
_CRC_PREFIX_LEN = 18


def _dumps_payload(payload: Dict[str, Any]) -> bytes:
    """Compact JSON encode of a payload mapping (orjson when available).

    The CRC scheme covers the *written bytes*, so the two encoders never
    need to agree byte-for-byte — a journal written with one loads fine
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
    re-encode is ever needed.
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


def _encode_key(key: object) -> str:
    """Slow-path key encoding (the hot path inlines the ``int`` case)."""
    if isinstance(key, str):
        return "s:" + key
    if isinstance(key, bytes):
        return "b:" + base64.b64encode(key).decode("ascii")
    raise ConfigurationError(
        "journaled ingestion accepts int, str or bytes keys "
        f"(got {type(key).__name__}); hash other key types yourself"
    )


def _bad_count(count: object) -> int:
    """Raise for a count the journal cannot hold (see :func:`split_pairs`)."""
    raise ConfigurationError(
        f"ingest count must be an int in [1, 2^63), got {count!r}"
    )


def split_pairs(
    pairs: List[Tuple[object, int]], check: Callable[[object], int]
) -> Tuple[List[object], Optional[List[int]]]:
    """The ``(keys, counts)`` columns of ``pairs``; ``counts`` is ``None``
    when every count is 1.

    A count that is not an ``int`` in ``[1, 2^63)`` goes to ``check``,
    which returns it as one or raises, before either column exists.
    """
    keys = [key for key, _count in pairs]
    counts = [
        count if type(count) is int and 0 < count <= INT64_MAX else check(count)
        for _key, count in pairs
    ]
    return keys, None if counts.count(1) == len(counts) else counts


def _decode_key(raw: object) -> IngestKey:
    """Invert the ``keys`` encoding; raise ``CheckpointError`` on bad shape."""
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

        self.sketch: DaVinciSketch = self._recover()
        #: buffered keys not yet journaled; ``_pending_counts is None``
        #: means every buffered key has an implicit count of 1 (the
        #: ubiquitous case — ``ingest_keys`` never materializes a counts
        #: list until a counted pair actually shows up).
        self._pending_keys: List[object] = []
        self._pending_counts: Optional[List[int]] = None
        #: the buffered keys' total count
        self._pending_units = 0
        self._items_at_checkpoint = self.items_ingested
        self._time_at_checkpoint = self._clock()
        self._journal_file = open(self._journal_path, "ab")
        self._closed = False

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
        for seq, pairs in self._replayable_records():
            had_state = True
            if seq <= self.applied_seq:
                continue
            if seq != self.applied_seq + 1:
                raise CheckpointError(
                    f"journal gap: expected record {self.applied_seq + 1}, "
                    f"found {seq} — the log was externally modified"
                )
            sketch.insert_batch(pairs, chunk_size=len(pairs))
            self.applied_seq = seq
            self.items_ingested += len(pairs)
            replayed_records += 1
            replayed_items += len(pairs)
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

    def _replayable_records(
        self,
    ) -> Iterator[Tuple[int, List[Tuple[IngestKey, int]]]]:
        """Yield valid ``(seq, pairs)`` records; trim a torn trailing line.

        The valid prefix length is tracked so a torn tail (crash mid-append)
        can be truncated away before new records are appended — otherwise
        the next append would graft fresh bytes onto the partial line.
        """
        try:
            with open(self._journal_path, "rb") as handle:
                blob = handle.read()
        except FileNotFoundError:
            return
        lines = blob.split(b"\n")
        # A complete journal ends with a newline, so a well-formed read
        # yields a trailing empty chunk; anything else is a torn tail.
        chunks = lines[:-1]
        torn: Optional[bytes] = lines[-1] if lines[-1] else None
        valid_length = 0
        records: List[Tuple[int, List[Tuple[IngestKey, int]]]] = []
        for index, line in enumerate(chunks):
            parsed = self._parse_journal_line(line)
            if parsed is None:
                if index == len(chunks) - 1 and torn is None:
                    torn = line
                    break
                raise CheckpointError(
                    f"journal record {index} is corrupt but not the final "
                    "line — fsynced records cannot tear; storage corruption"
                )
            records.append(parsed)
            valid_length += len(line) + 1
        if torn is not None:
            with open(self._journal_path, "r+b") as handle:
                handle.truncate(valid_length)
                handle.flush()
                os.fsync(handle.fileno())
        yield from records

    def _parse_journal_line(
        self, line: bytes
    ) -> Optional[Tuple[int, List[Tuple[IngestKey, int]]]]:
        """One journal line → ``(seq, pairs)``, or None when torn."""
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
            return seq, list(zip(decoded, repeat(1)))
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
        return seq, list(zip(decoded, raw_counts))

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
        keys buffered before it kept.
        """
        return self._ingest(pairs, weighted=True)

    def ingest_keys(self, keys: Iterable[object]) -> int:
        """Accept single occurrences (``count=1`` per key).

        :meth:`ingest` without the counts column: no pair tuples and no
        counts list unless weighted pairs already share the buffer.
        """
        return self._ingest(keys, weighted=False)

    def _ingest(self, items: Iterable[Any], weighted: bool) -> int:
        """The buffering loop behind :meth:`ingest` and :meth:`ingest_keys`.

        Each pass takes what the buffer lacks of a full chunk; a full
        chunk arriving on an empty buffer is committed without a copy.  A
        pass the journal would refuse (:meth:`_check_slice`) raises with
        none of it buffered: the buffer stays as the pass found it, so
        keys accepted earlier are still committed by the next full chunk
        or :meth:`flush`.
        """
        self._require_open()
        accepted = 0
        chunk_items = self.journal_chunk_items
        iterator = iter(items)
        while True:
            pending = self._pending_keys
            taken = list(islice(iterator, chunk_items - len(pending)))
            if not taken:
                return accepted
            counts: Optional[List[int]] = None
            if weighted:
                taken, counts = split_pairs(taken, _bad_count)
            units = len(taken) if counts is None else sum(counts)
            self._check_slice(taken, units)
            accepted += len(taken)
            if pending or len(taken) < chunk_items:
                held = self._pending_counts
                if counts is not None and held is None:
                    held = self._pending_counts = [1] * len(pending)
                pending.extend(taken)
                self._pending_units += units
                if held is not None:
                    held.extend(
                        counts if counts is not None else repeat(1, len(taken))
                    )
                if len(pending) < chunk_items:
                    continue
                taken, counts = pending, held
                self._clear_pending()
            self._commit(taken, counts)
            if self._checkpoint_due():
                self.checkpoint()

    def _check_slice(self, keys: List[object], units: int) -> None:
        """Raise ``ConfigurationError`` for keys the journal would refuse:
        a total count past int64 with what is buffered, a key that is not
        an ``int``, ``str`` or ``bytes``, or a ``str`` that UTF-8 cannot
        encode (a lone surrogate; the sketch's own error), in that order."""
        total = self.sketch.total_count + self._pending_units + units
        require_int64("total_count", total)
        if set(map(type, keys)) == {int}:
            return
        for key in keys:
            if type(key) is not int and not isinstance(key, (str, bytes)):
                _encode_key(key)
        texts = [key for key in keys if isinstance(key, str)]
        try:
            "".join(texts).encode("utf-8")
        except UnicodeEncodeError:
            check_texts(texts)
            raise

    def _clear_pending(self) -> None:
        self._pending_keys = []
        self._pending_counts = None
        self._pending_units = 0

    def flush(self) -> None:
        """Commit the buffered partial chunk (journal, fsync, apply).

        Meant for end of stream; a mid-stream flush commits a chunk at a
        non-aligned boundary, which breaks byte-identity with runs that
        did not flush at the same position (the recovery itself stays
        correct — replay always mirrors whatever was journaled).
        """
        self._require_open()
        if self._pending_keys:
            keys = self._pending_keys
            counts = self._pending_counts
            self._clear_pending()
            self._commit(keys, counts)

    @property
    def pending_items(self) -> int:
        """Accepted pairs not yet journaled (lost on crash)."""
        return len(self._pending_keys)

    def _commit(
        self, keys: List[object], counts: Optional[List[int]]
    ) -> None:
        """Journal one chunk durably, then apply it to the sketch.

        ``counts is None`` means all-singletons (journaled as the scalar
        ``1`` and applied via :meth:`DaVinciSketch.insert_all`, whose
        state is byte-identical to singleton pairs through
        ``insert_batch`` by the batching contract).  An all-``int`` chunk
        (detected with one C-speed ``set(map(type, …))`` scan — ``bool``
        has its own type, so it cannot slip through) is journaled with no
        key transform at all; mixed chunks fall back to a comprehension
        that tags non-int keys via :func:`_encode_key`.  The chunk's
        keys and total passed :meth:`_check_slice` when they were taken.
        """
        if set(map(type, keys)) == {int}:
            encoded: List[Union[int, str]] = keys  # type: ignore[assignment]
        else:
            encoded = [
                key if type(key) is int else _encode_key(key) for key in keys
            ]
        compact: Union[int, List[int]]
        if counts is None or counts.count(1) == len(counts):
            compact = 1
        else:
            compact = counts
        self._append_record(encoded, compact)
        if counts is None:
            self.sketch.insert_all(keys, chunk_size=len(keys))
        else:
            self.sketch.insert_batch(
                zip(keys, counts), chunk_size=len(keys)
            )
        self.applied_seq += 1
        self.items_ingested += len(keys)
        if _obs.ENABLED:
            self._observe().ingested_items.inc(len(keys))
        self._hook("apply")

    def _append_record(
        self, keys: List[Union[int, str]], compact: Union[int, List[int]]
    ) -> None:
        """Write one CRC-prefixed record line (see :func:`_crc_line`)."""
        observing = _obs.ENABLED
        started = time.perf_counter() if observing else 0.0
        line = _crc_line(
            {"counts": compact, "keys": keys, "seq": self.applied_seq + 1}
        )
        self._journal_file.write(line + b"\n")
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
