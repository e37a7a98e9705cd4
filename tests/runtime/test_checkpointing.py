"""CheckpointingIngestor: durability, recovery, byte-identity.

The central property (ISSUE acceptance): for *any* injected crash point
during an ingest, recovering from disk and resuming the stream from
``items_ingested`` yields a sketch whose ``to_state()`` is byte-identical
to an uninterrupted run with the same chunking.
"""

from __future__ import annotations

import base64
import json
import os
import re

import pytest

from repro.common.errors import CheckpointError, ConfigurationError
from repro.common.hashing import canonical_key, key_to_int
from repro.common.validation import INT64_MAX
from repro.core import serialization
from repro.core.config import DaVinciConfig
from repro.core.davinci import DaVinciSketch
from repro.runtime import (
    CHECKPOINT_FILENAME,
    JOURNAL_FILENAME,
    CheckpointingIngestor,
)
from repro.runtime.ingestor import _crc_line
from repro.testing import CrashInjector, InjectedCrash
from tests.conftest import make_zipf_stream
from tests.runtime import journal_format

#: cadence small enough that a short run crosses several checkpoints
FAST = dict(checkpoint_every_items=700, journal_chunk_items=128)


def _pairs(num_items: int, num_keys: int = 300, seed: int = 42):
    return [
        (key, 1)
        for key in make_zipf_stream(
            num_keys=num_keys, num_items=num_items, seed=seed
        )
    ]


def _run_to_completion(config, directory, pairs, hook=None, **kwargs):
    """The canonical session: ingest, flush the tail, checkpoint, close."""
    ingestor = CheckpointingIngestor(
        config, directory, crash_hook=hook, **kwargs
    )
    ingestor.ingest(pairs)
    ingestor.flush()
    ingestor.checkpoint()
    state = ingestor.sketch.to_state()
    ingestor.close()
    return state


def _recover_and_finish(config, directory, pairs, **kwargs):
    """Reopen after a crash, resume the stream, return the final state."""
    ingestor = CheckpointingIngestor(config, directory, **kwargs)
    ingestor.ingest(pairs[ingestor.items_ingested :])
    ingestor.flush()
    state = ingestor.sketch.to_state()
    ingestor.close()
    return state


class TestCrashRecoveryByteIdentity:
    def test_every_crash_point_recovers_byte_identically(
        self, small_config, tmp_path
    ):
        """Exhaustive sweep over *all* durable steps of a 2k-item run."""
        pairs = _pairs(2000)
        baseline = _run_to_completion(
            small_config, tmp_path / "base", pairs, **FAST
        )

        recorder = CrashInjector(0)
        _run_to_completion(
            small_config, tmp_path / "count", pairs, hook=recorder, **FAST
        )
        total_steps = len(recorder.labels)
        assert total_steps > 20, "sweep must cover a non-trivial run"
        # the run exercises every durable-step flavor
        assert {
            "journal:record",
            "apply",
            "checkpoint:tmp",
            "checkpoint:replace",
            "journal:truncate",
        } <= set(recorder.labels)

        for step in range(1, total_steps + 1):
            directory = tmp_path / f"crash{step}"
            injector = CrashInjector(step)
            with pytest.raises(InjectedCrash):
                _run_to_completion(
                    small_config, directory, pairs, hook=injector, **FAST
                )
            recovered = _recover_and_finish(
                small_config, directory, pairs, **FAST
            )
            assert recovered == baseline, f"divergence at crash step {step}"

    def test_100k_item_ingest_survives_sampled_crash_points(
        self, small_config, tmp_path
    ):
        """Representative run at scale with default-sized chunks."""
        kwargs = dict(checkpoint_every_items=20000, journal_chunk_items=4096)
        pairs = _pairs(100_000, num_keys=2000)
        baseline = _run_to_completion(
            small_config, tmp_path / "base", pairs, **kwargs
        )
        recorder = CrashInjector(0)
        _run_to_completion(
            small_config, tmp_path / "count", pairs, hook=recorder, **kwargs
        )
        total_steps = len(recorder.labels)
        samples = sorted(
            {1, 2, 7, total_steps // 3, total_steps // 2, total_steps - 1, total_steps}
        )
        for step in samples:
            directory = tmp_path / f"crash{step}"
            with pytest.raises(InjectedCrash):
                _run_to_completion(
                    small_config,
                    directory,
                    pairs,
                    hook=CrashInjector(step),
                    **kwargs,
                )
            recovered = _recover_and_finish(
                small_config, directory, pairs, **kwargs
            )
            assert recovered == baseline, f"divergence at crash step {step}"

    def test_resume_split_is_chunk_aligned(self, small_config, tmp_path):
        """A crash mid-buffer loses only the unjournaled tail."""
        pairs = _pairs(2000)
        ingestor = CheckpointingIngestor(
            small_config, tmp_path / "d", **FAST
        )
        ingestor.ingest(pairs[:1000])  # 7 full chunks of 128 = 896 applied
        assert ingestor.items_ingested == 896
        assert ingestor.pending_items == 104
        del ingestor  # crash: no close, buffer gone

        reopened = CheckpointingIngestor(small_config, tmp_path / "d", **FAST)
        assert reopened.recovered
        assert reopened.items_ingested == 896
        assert reopened.pending_items == 0
        reopened.close()

    def test_mixed_key_types_roundtrip_through_crash(
        self, small_config, tmp_path
    ):
        pairs = [
            (7, 3),
            ("flow-a", 2),
            (b"\x00\xffraw", 5),
            ("flow-a", 1),
            (1 << 40, 4),  # out-of-domain int goes through canonical_key
        ] * 40
        kwargs = dict(checkpoint_every_items=None, journal_chunk_items=16)
        baseline = _run_to_completion(
            small_config, tmp_path / "base", pairs, **kwargs
        )
        directory = tmp_path / "crash"
        with pytest.raises(InjectedCrash):
            _run_to_completion(
                small_config,
                directory,
                pairs,
                hook=CrashInjector(9),
                **kwargs,
            )
        recovered = _recover_and_finish(
            small_config, directory, pairs, **kwargs
        )
        assert recovered == baseline

        twin = DaVinciSketch.from_state(recovered)
        for key in (7, "flow-a", b"\x00\xffraw", 1 << 40):
            assert twin.query(key) > 0


def _journal_of_four(config, directory):
    """A binary journal of four 64-pair records (the last weighted), no
    checkpoint; returns the journal path and the pairs."""
    pairs = _pairs(192) + [(key, 3) for key, _count in _pairs(64, seed=9)]
    ingestor = CheckpointingIngestor(
        config, directory, checkpoint_every_items=None, journal_chunk_items=64
    )
    ingestor.ingest(pairs)
    ingestor.close()
    return directory / JOURNAL_FILENAME, pairs


def _state_after(config, pairs, chunk=64):
    sketch = DaVinciSketch(config)
    sketch.insert_batch(pairs, chunk_size=chunk)
    return sketch.to_state()


class TestJournal:
    """Torn tails are trimmed, anything else raises: binary records."""

    def test_torn_tail_is_discarded_and_truncated(self, small_config, tmp_path):
        # a crash mid-append leaves a prefix of a record
        directory = tmp_path / "d"
        journal_path, pairs = _journal_of_four(small_config, directory)
        blob = journal_path.read_bytes()
        last = journal_format.records(blob)[-1]
        assert last.counts == [3] * 64
        journal_path.write_bytes(blob + last.bytes[:30])
        self.recovers_after_tear(small_config, directory, pairs, blob, 256)

    def test_crc_failing_final_record_is_discarded(self, small_config, tmp_path):
        directory = tmp_path / "d"
        journal_path, pairs = _journal_of_four(small_config, directory)
        blob = journal_path.read_bytes()
        last = journal_format.records(blob)[-1]
        torn = bytearray(blob)
        torn[last.offset + 40] ^= 0x01
        journal_path.write_bytes(bytes(torn))
        self.recovers_after_tear(
            small_config, directory, pairs, blob[: last.offset], 192
        )

    @staticmethod
    def recovers_after_tear(config, directory, pairs, intact, applied):
        journal_path = directory / JOURNAL_FILENAME
        kwargs = dict(checkpoint_every_items=None, journal_chunk_items=64)
        reopened = CheckpointingIngestor(config, directory, **kwargs)
        assert reopened.items_ingested == applied
        assert reopened.sketch.to_state() == _state_after(config, pairs[:applied])
        # the torn bytes were physically truncated away so appends are safe
        assert journal_path.read_bytes() == intact
        reopened.ingest(_pairs(64, seed=5))
        reopened.close()
        # every surviving record parses whole, in sequence, CRC valid
        blob = journal_path.read_bytes()
        seqs = [record.seq for record in journal_format.records(blob)]
        assert seqs == list(range(1, applied // 64 + 2))

    def test_non_tail_corruption_raises(self, small_config, tmp_path):
        directory = tmp_path / "d"
        journal_path, _pairs_ = _journal_of_four(small_config, directory)
        blob = bytearray(journal_path.read_bytes())
        blob[journal_format.HEADER.size + 5] ^= 0x10  # a key of record 1
        journal_path.write_bytes(bytes(blob))

        with pytest.raises(CheckpointError, match="not the final"):
            CheckpointingIngestor(small_config, directory, journal_chunk_items=64)

    def test_journal_gap_raises(self, small_config, tmp_path):
        directory = tmp_path / "d"
        journal_path, _pairs_ = _journal_of_four(small_config, directory)
        records = journal_format.records(journal_path.read_bytes())
        journal_path.write_bytes(
            records[0].bytes + b"".join(r.bytes for r in records[2:])
        )  # drop seq 2

        with pytest.raises(CheckpointError, match="gap"):
            CheckpointingIngestor(small_config, directory, journal_chunk_items=64)

    def test_journal_is_truncated_after_checkpoint(
        self, small_config, tmp_path
    ):
        directory = tmp_path / "d"
        ingestor = CheckpointingIngestor(
            small_config,
            directory,
            checkpoint_every_items=None,
            journal_chunk_items=64,
        )
        ingestor.ingest(_pairs(256))
        assert (directory / JOURNAL_FILENAME).stat().st_size > 0
        ingestor.checkpoint()
        assert (directory / JOURNAL_FILENAME).stat().st_size == 0
        ingestor.close()

    def test_records_hold_canonical_keys(self, small_config, tmp_path):
        # one uint32 per key whatever its type, and no counts column
        # when every count is 1
        pairs = [("flow-a", 1), (b"\x00\xff", 1), (7, 1), (1 << 40, 1), (-3, 1)]
        directory = tmp_path / "d"
        ingestor = CheckpointingIngestor(small_config, directory)
        ingestor.ingest(pairs)
        ingestor.flush()
        ingestor.close()
        (record,) = journal_format.records((directory / JOURNAL_FILENAME).read_bytes())
        assert (record.seq, record.n, record.counts) == (1, 5, None)
        assert record.keys == [canonical_key(key) for key, _count in pairs]
        assert record.end == journal_format.HEADER.size + 4 * 5 + 4


class TestJsonJournal:
    """Journals written in the JSON format before the binary records:
    the same torn-tail, corruption and gap rules, and a recovery that
    leaves the journal binary."""

    PAIRS = [("flow-%d" % (i % 37), 1) for i in range(128)] + [
        (b"\x00\xffraw", 2),
        (7, 3),
        (1 << 40, 1),
        ("é", 5),
    ] * 32

    def write(self, directory, blob):
        directory.mkdir()
        (directory / JOURNAL_FILENAME).write_bytes(blob)

    def test_json_journal_replays_then_checkpoints(
        self, small_config, tmp_path
    ):
        directory = tmp_path / "d"
        self.write(directory, journal_format.json_journal(self.PAIRS, 64))
        ingestor = CheckpointingIngestor(
            small_config, directory, journal_chunk_items=64
        )
        assert (ingestor.applied_seq, ingestor.items_ingested) == (4, 256)
        assert ingestor.sketch.to_state() == _state_after(small_config, self.PAIRS)
        # the recovery checkpoint emptied the JSON journal
        assert (directory / JOURNAL_FILENAME).read_bytes() == b""
        ingestor.close()

    def test_torn_tail_is_discarded(self, small_config, tmp_path):
        directory = tmp_path / "d"
        lines = journal_format.json_journal(self.PAIRS, 64)
        self.write(directory, lines + b'{"seq": 99, "pa')  # torn append
        ingestor = CheckpointingIngestor(
            small_config, directory, journal_chunk_items=64
        )
        assert ingestor.items_ingested == 256
        assert ingestor.sketch.to_state() == _state_after(small_config, self.PAIRS)
        ingestor.close()

    def test_corrupt_final_line_is_discarded(self, small_config, tmp_path):
        directory = tmp_path / "d"
        lines = journal_format.json_journal(self.PAIRS, 64).splitlines(keepends=True)
        lines[-1] = lines[-1][:20] + b"X" + lines[-1][21:]
        self.write(directory, b"".join(lines))
        ingestor = CheckpointingIngestor(
            small_config, directory, journal_chunk_items=64
        )
        assert ingestor.items_ingested == 192
        assert ingestor.sketch.to_state() == _state_after(
            small_config, self.PAIRS[:192]
        )
        ingestor.close()

    def test_non_tail_corruption_raises(self, small_config, tmp_path):
        directory = tmp_path / "d"
        lines = journal_format.json_journal(self.PAIRS, 64).splitlines(keepends=True)
        lines[0] = lines[0][:20] + b"X" + lines[0][21:]
        self.write(directory, b"".join(lines))
        with pytest.raises(CheckpointError, match="not the final"):
            CheckpointingIngestor(small_config, directory, journal_chunk_items=64)

    def test_journal_gap_raises(self, small_config, tmp_path):
        directory = tmp_path / "d"
        lines = journal_format.json_journal(self.PAIRS, 64).splitlines(keepends=True)
        self.write(directory, lines[0] + b"".join(lines[2:]))  # drop seq 2
        with pytest.raises(CheckpointError, match="gap"):
            CheckpointingIngestor(small_config, directory, journal_chunk_items=64)

    def test_a_binary_record_in_a_json_journal_raises(
        self, small_config, tmp_path
    ):
        directory = tmp_path / "d"
        lines = journal_format.json_journal(self.PAIRS, 64)
        self.write(directory, lines + journal_format.forge(5, [1, 2]) + b"\n")
        with pytest.raises(CheckpointError, match="one format"):
            CheckpointingIngestor(small_config, directory, journal_chunk_items=64)

    def test_records_past_the_checkpoint_recover_byte_identically(
        self, small_config, tmp_path
    ):
        pairs = self.PAIRS + _pairs(300, seed=3)
        kwargs = dict(checkpoint_every_items=None, journal_chunk_items=64)
        baseline = _run_to_completion(
            small_config, tmp_path / "base", pairs, **kwargs
        )
        # a checkpoint at record 2, then a JSON journal holding records
        # 1-4: 1 and 2 are covered by the checkpoint, 3 and 4 are not
        directory = tmp_path / "d"
        early = CheckpointingIngestor(small_config, directory, **kwargs)
        early.ingest(pairs[:128])
        early.checkpoint()
        early.close()
        (directory / JOURNAL_FILENAME).write_bytes(
            journal_format.json_journal(pairs[:256], 64)
        )

        recovered = CheckpointingIngestor(small_config, directory, **kwargs)
        assert recovered.recovered
        assert (recovered.applied_seq, recovered.items_ingested) == (4, 256)
        assert recovered.sketch.to_state() == _state_after(small_config, pairs[:256])
        journal_path = directory / JOURNAL_FILENAME
        assert journal_path.read_bytes() == b""  # the recovery checkpoint
        recovered.ingest(pairs[256:320])  # one whole chunk: one record
        (record,) = journal_format.records(journal_path.read_bytes())
        assert record.seq == 5
        assert record.keys == [canonical_key(key) for key, _c in pairs[256:320]]
        recovered.close()
        resumed = _recover_and_finish(small_config, directory, pairs, **kwargs)
        assert resumed == baseline


class TestCheckpointFile:
    def test_bitflip_in_checkpoint_raises(self, small_config, tmp_path):
        directory = tmp_path / "d"
        _run_to_completion(small_config, directory, _pairs(512), **FAST)
        path = directory / CHECKPOINT_FILENAME
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0x10
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError):
            CheckpointingIngestor(small_config, directory, **FAST)

    def test_checkpoint_write_is_atomic(self, small_config, tmp_path):
        """A crash between temp-write and rename keeps the old snapshot."""
        pairs = _pairs(2000)
        baseline = _run_to_completion(
            small_config, tmp_path / "base", pairs, **FAST
        )
        directory = tmp_path / "crash"
        injector = CrashInjector(2, only_label="checkpoint:tmp")
        with pytest.raises(InjectedCrash):
            _run_to_completion(
                small_config, directory, pairs, hook=injector, **FAST
            )
        # old checkpoint (or none) plus the journal recovers everything
        recovered = _recover_and_finish(small_config, directory, pairs, **FAST)
        assert recovered == baseline

    def test_embedded_state_passes_deep_verification(
        self, small_config, tmp_path
    ):
        directory = tmp_path / "d"
        _run_to_completion(small_config, directory, _pairs(512), **FAST)
        record = json.loads((directory / CHECKPOINT_FILENAME).read_bytes())
        assert record["format"] == 2
        # from_wire deep-verifies the embedded wire-v3 blob
        sketch = serialization.from_wire(base64.b64decode(record["sketch"]))
        assert sketch.config == small_config

    def test_json_state_checkpoint_still_recovers(self, small_config, tmp_path):
        """A format-1 checkpoint (the v2 state dict, no wire blob) loads."""
        pairs = _pairs(1500)
        baseline = _run_to_completion(small_config, tmp_path / "base", pairs, **FAST)
        directory = tmp_path / "d"
        directory.mkdir()
        sketch = DaVinciSketch(small_config)
        sketch.insert_batch(pairs[:1000], chunk_size=1000)
        record = {
            "applied_seq": 1,
            "format": 1,
            "items_ingested": 1000,
            "state": sketch.to_state(),
        }
        (directory / CHECKPOINT_FILENAME).write_bytes(_crc_line(record))
        ingestor = CheckpointingIngestor(small_config, directory, **FAST)
        assert ingestor.recovered and ingestor.items_ingested == 1000
        assert ingestor.sketch.to_state() == sketch.to_state()
        ingestor.close()
        resumed = _recover_and_finish(small_config, directory, pairs, **FAST)
        assert resumed["total_count"] == baseline["total_count"]

    def test_config_mismatch_is_refused(self, small_config, tmp_path):
        directory = tmp_path / "d"
        _run_to_completion(small_config, directory, _pairs(256), **FAST)
        other = DaVinciConfig(
            fp_buckets=8,
            fp_entries=4,
            ef_level_widths=(256, 64),
            ef_level_bits=(4, 8),
            ifp_rows=3,
            ifp_width=64,
            lambda_evict=8.0,
            filter_threshold=10,
            seed=7,
        )
        with pytest.raises(ConfigurationError, match="differently-configured"):
            CheckpointingIngestor(other, directory, **FAST)


class TestCadence:
    def test_item_cadence_checkpoints_mid_stream(self, small_config, tmp_path):
        directory = tmp_path / "d"
        ingestor = CheckpointingIngestor(
            small_config,
            directory,
            checkpoint_every_items=256,
            journal_chunk_items=64,
        )
        ingestor.ingest(_pairs(1024))
        ingestor.close()
        record = json.loads((directory / CHECKPOINT_FILENAME).read_bytes())
        assert record["items_ingested"] >= 256  # written without an explicit call

    def test_time_cadence_uses_injected_clock(self, small_config, tmp_path):
        ticks = iter(range(0, 10_000, 60))  # one minute per observation
        directory = tmp_path / "d"
        ingestor = CheckpointingIngestor(
            small_config,
            directory,
            checkpoint_every_items=None,
            checkpoint_every_seconds=30.0,
            journal_chunk_items=64,
            clock=lambda: float(next(ticks)),
        )
        ingestor.ingest(_pairs(128))  # two chunks, clock jumps 60s
        ingestor.close()
        assert (directory / CHECKPOINT_FILENAME).exists()

    def test_no_cadence_never_checkpoints_implicitly(
        self, small_config, tmp_path
    ):
        directory = tmp_path / "d"
        ingestor = CheckpointingIngestor(
            small_config,
            directory,
            checkpoint_every_items=None,
            journal_chunk_items=64,
        )
        ingestor.ingest(_pairs(1024))
        assert not (directory / CHECKPOINT_FILENAME).exists()
        ingestor.close()


class TestLifecycleAndValidation:
    def test_context_manager_flushes_and_checkpoints(
        self, small_config, tmp_path
    ):
        pairs = _pairs(300)
        directory = tmp_path / "d"
        with CheckpointingIngestor(small_config, directory, **FAST) as ingestor:
            ingestor.ingest(pairs)  # 300 = 2×128 + 44 buffered
            assert ingestor.pending_items == 44
        reopened = CheckpointingIngestor(small_config, directory, **FAST)
        assert reopened.items_ingested == 300
        assert (directory / JOURNAL_FILENAME).stat().st_size == 0
        reopened.close()

    def test_exceptional_exit_does_not_checkpoint(
        self, small_config, tmp_path
    ):
        directory = tmp_path / "d"
        with pytest.raises(RuntimeError, match="boom"):
            with CheckpointingIngestor(
                small_config, directory, **FAST
            ) as ingestor:
                ingestor.ingest(_pairs(64))
                raise RuntimeError("boom")
        assert not (directory / CHECKPOINT_FILENAME).exists()

    def test_fresh_directory_is_not_recovered(self, small_config, tmp_path):
        ingestor = CheckpointingIngestor(small_config, tmp_path / "d", **FAST)
        assert not ingestor.recovered
        assert ingestor.items_ingested == 0
        ingestor.close()

    def test_closed_ingestor_rejects_operations(self, small_config, tmp_path):
        ingestor = CheckpointingIngestor(small_config, tmp_path / "d", **FAST)
        ingestor.close()
        ingestor.close()  # idempotent
        for operation in (
            lambda: ingestor.ingest([(1, 1)]),
            ingestor.flush,
            ingestor.checkpoint,
        ):
            with pytest.raises(CheckpointError, match="closed"):
                operation()

    @pytest.mark.parametrize(
        "pair", [((1, 1), 0), ((1,), 1), (1, 1.5), (1, True), (None, 1)]
    )
    def test_rejects_malformed_pairs(self, small_config, tmp_path, pair):
        ingestor = CheckpointingIngestor(
            small_config, tmp_path / "d", journal_chunk_items=1
        )
        with pytest.raises((ConfigurationError, TypeError, ValueError)):
            ingestor.ingest([pair])
            ingestor.flush()
        ingestor.close()

    @pytest.mark.parametrize(
        "pairs",
        [[(1, 2**62), (2, 2**62)], [(1, 2**70), (2, 1)]],
        ids=["total-count-leaves-int64", "count-leaves-int64"],
    )
    def test_chunk_the_sketch_refuses_is_never_journaled(
        self, small_config, tmp_path, pairs
    ):
        directory = tmp_path / "d"
        journal = directory / JOURNAL_FILENAME
        ingestor = CheckpointingIngestor(
            small_config, directory, journal_chunk_items=2
        )
        with pytest.raises(ConfigurationError, match=r"int64|2\^63"):
            ingestor.ingest(pairs)
        assert journal.read_bytes() == b""
        assert (ingestor.applied_seq, ingestor.items_ingested) == (0, 0)
        ingestor.ingest([(3, 2), (4, 1)])
        assert ingestor.applied_seq == 1
        state = ingestor.sketch.to_state()
        ingestor.close()
        reopened = CheckpointingIngestor(
            small_config, directory, journal_chunk_items=2
        )
        assert (reopened.applied_seq, reopened.items_ingested) == (1, 2)
        assert reopened.sketch.to_state() == state
        reopened.close()

    def test_lone_surrogate_is_never_journaled(self, small_config, tmp_path):
        # UTF-8 cannot encode "\ud800": the chunk raises the sketch's
        # typed error before its journal record is written
        with pytest.raises(ConfigurationError) as scalar:
            key_to_int("\ud800")
        directory = tmp_path / "d"
        journal = directory / JOURNAL_FILENAME
        ingestor = CheckpointingIngestor(
            small_config, directory, journal_chunk_items=2
        )
        message = re.escape(str(scalar.value))
        with pytest.raises(ConfigurationError, match=message):
            ingestor.ingest_keys(["a", "\ud800"])
        assert journal.read_bytes() == b""
        assert (ingestor.applied_seq, ingestor.items_ingested) == (0, 0)
        ingestor.ingest_keys(["a", "b"])
        state = ingestor.sketch.to_state()
        ingestor.close()
        reopened = CheckpointingIngestor(
            small_config, directory, journal_chunk_items=2
        )
        assert (reopened.applied_seq, reopened.items_ingested) == (1, 2)
        assert reopened.sketch.to_state() == state
        reopened.close()

    @pytest.mark.parametrize("refusal", ["surrogate", "key-type", "total-leaves-int64"])
    @pytest.mark.parametrize("entry", ["ingest", "ingest_keys", "short-then-flush"])
    def test_a_refused_slice_keeps_the_keys_buffered_before_it(
        self, small_config, tmp_path, refusal, entry
    ):
        # "x" and "y" wait in a 4-key chunk; the next slice is refused,
        # either while it completes the chunk or, short, before the flush
        directory = tmp_path / "d"
        ingestor = CheckpointingIngestor(
            small_config, directory, journal_chunk_items=4
        )
        ingestor.ingest([(7, INT64_MAX - 2)])
        ingestor.flush()
        assert ingestor.ingest_keys(["x", "y"]) == 2
        bad = {"surrogate": "\ud800", "key-type": 1.5, "total-leaves-int64": "w"}
        keys = ["z", bad[refusal]] if entry != "short-then-flush" else [bad[refusal]]
        with pytest.raises(ConfigurationError):
            if entry == "ingest":
                ingestor.ingest([(key, 1) for key in keys])
            else:
                ingestor.ingest_keys(keys)
        assert ingestor.pending_items == 2
        ingestor.flush()
        assert (ingestor.applied_seq, ingestor.items_ingested) == (2, 3)
        assert ingestor.sketch.total_count == INT64_MAX
        state = ingestor.sketch.to_state()
        ingestor.close()
        last = journal_format.records((directory / JOURNAL_FILENAME).read_bytes())[-1]
        assert last.keys == [canonical_key("x"), canonical_key("y")]
        reopened = CheckpointingIngestor(
            small_config, directory, journal_chunk_items=4
        )
        assert (reopened.applied_seq, reopened.items_ingested) == (2, 3)
        assert reopened.sketch.to_state() == state
        reopened.close()

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(checkpoint_every_items=0),
            dict(checkpoint_every_seconds=0),
            dict(checkpoint_every_seconds=-1.0),
            dict(journal_chunk_items=0),
        ],
    )
    def test_rejects_invalid_construction(self, small_config, tmp_path, kwargs):
        with pytest.raises(ConfigurationError):
            CheckpointingIngestor(small_config, tmp_path / "d", **kwargs)

    def test_ingest_keys_counts_single_occurrences(
        self, small_config, tmp_path
    ):
        directory = tmp_path / "d"
        with CheckpointingIngestor(small_config, directory, **FAST) as ingestor:
            accepted = ingestor.ingest_keys(k for k, _count in _pairs(200))
            assert accepted == 200
        reopened = CheckpointingIngestor(small_config, directory, **FAST)
        assert reopened.items_ingested == 200
        assert reopened.sketch.total_count == 200
        reopened.close()
