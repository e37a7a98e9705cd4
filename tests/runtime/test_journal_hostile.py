"""Hostile journals: recovery fails typed and bounded, or replays a prefix.

Every journal here is forged or damaged by hand.  Recovery may only
replay a clean prefix of the records (a torn tail, trimmed away) or
raise :class:`~repro.common.errors.CheckpointError`, and it may never
size anything by a header's ``n`` before checking it against the bytes
the file holds.
"""

from __future__ import annotations

import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.errors import CheckpointError
from repro.core.config import DaVinciConfig
from repro.core.davinci import DaVinciSketch
from repro.runtime import JOURNAL_FILENAME, CheckpointingIngestor
from tests.conftest import make_zipf_stream
from tests.runtime import journal_format

CONFIG = DaVinciConfig(
    fp_buckets=16,
    fp_entries=4,
    ef_level_widths=(256, 64),
    ef_level_bits=(4, 8),
    ifp_rows=3,
    ifp_width=64,
    lambda_evict=8.0,
    filter_threshold=10,
    seed=7,
)

CHUNK = 32

#: three records: unit counts, weighted counts, unit counts
PAIRS = (
    [(key, 1) for key in make_zipf_stream(200, CHUNK, seed=1)]
    + [(key, 1 + key % 4) for key in make_zipf_stream(200, CHUNK, seed=2)]
    + [(f"flow-{key}", 1) for key in make_zipf_stream(200, CHUNK, seed=3)]
)


def _build() -> bytes:
    with tempfile.TemporaryDirectory() as directory:
        ingestor = CheckpointingIngestor(
            CONFIG,
            directory,
            checkpoint_every_items=None,
            journal_chunk_items=CHUNK,
        )
        ingestor.ingest(PAIRS)
        ingestor.close()
        return (Path(directory) / JOURNAL_FILENAME).read_bytes()


JOURNAL = _build()
RECORDS = journal_format.records(JOURNAL)

#: ``to_state()`` after the first ``k`` records, for ``k`` in 0..3
PREFIX_STATES = []
for _count in range(4):
    _sketch = DaVinciSketch(CONFIG)
    _sketch.insert_batch(PAIRS[: _count * CHUNK], chunk_size=CHUNK)
    PREFIX_STATES.append(_sketch.to_state())


def _recover(directory: Path, blob: bytes):
    """Recover from a journal of ``blob``; ``(ingestor, peak bytes)``."""
    directory.mkdir(exist_ok=True)
    (directory / JOURNAL_FILENAME).write_bytes(blob)
    tracemalloc.start()
    try:
        ingestor = CheckpointingIngestor(
            CONFIG, directory, journal_chunk_items=CHUNK
        )
        return ingestor, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _bounded(peak: int, blob: bytes) -> bool:
    """A peak that the journal's size explains, whatever its headers say."""
    return peak < 64 * len(blob) + (4 << 20)


def test_the_journal_has_three_records():
    assert [record.seq for record in RECORDS] == [1, 2, 3]
    assert [record.counts is not None for record in RECORDS] == [
        False,
        True,
        False,
    ]


class TestDirected:
    HUGE = 1 << 28  # a gigabyte of keys, were it allocated

    def test_n_past_the_end_as_the_tail_is_torn(self, tmp_path):
        blob = (
            RECORDS[0].bytes
            + RECORDS[1].bytes
            + journal_format.with_n(RECORDS[2], self.HUGE)
        )
        ingestor, peak = _recover(tmp_path / "d", blob)
        assert _bounded(peak, blob)
        assert ingestor.applied_seq == 2
        assert ingestor.sketch.to_state() == PREFIX_STATES[2]
        assert (tmp_path / "d" / JOURNAL_FILENAME).read_bytes() == (
            RECORDS[0].bytes + RECORDS[1].bytes
        )
        ingestor.close()

    def test_n_past_the_end_before_the_tail_raises(self, tmp_path):
        blob = (
            RECORDS[0].bytes
            + journal_format.with_n(RECORDS[1], self.HUGE)
            + RECORDS[2].bytes
        )
        directory = tmp_path / "d"
        directory.mkdir()
        (directory / JOURNAL_FILENAME).write_bytes(blob)
        tracemalloc.start()
        try:
            with pytest.raises(CheckpointError, match="whole record follows"):
                CheckpointingIngestor(CONFIG, directory)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert _bounded(peak, blob)

    def test_n_exactly_covering_the_rest_raises(self, tmp_path):
        # record 1's n swallows records 2 and 3 whole: its CRC fails on a
        # record that ends at the end of the file, as a torn final
        # record's would, but whole records lie inside it
        rest = len(JOURNAL) - RECORDS[0].end
        assert rest % 4 == 0
        swallowing = journal_format.with_n(RECORDS[0], RECORDS[0].n + rest // 4)
        blob = swallowing + JOURNAL[RECORDS[0].end :]
        with pytest.raises(CheckpointError, match="whole record follows"):
            _recover(tmp_path / "d", blob)

    @pytest.mark.parametrize("which", [0, 2])
    def test_a_bad_magic_raises(self, tmp_path, which):
        damaged = [record.bytes for record in RECORDS]
        damaged[which] = b"DVJ\x02" + damaged[which][4:]
        with pytest.raises(CheckpointError, match="impossible record header"):
            _recover(tmp_path / "d", b"".join(damaged))

    def test_a_header_of_zero_keys_raises(self, tmp_path):
        blob = RECORDS[0].bytes + journal_format.forge(2, [], n=0)
        with pytest.raises(CheckpointError, match="impossible record header"):
            _recover(tmp_path / "d", blob)

    @pytest.mark.parametrize("bad", [0, -1, -(1 << 63)])
    def test_a_count_below_one_raises(self, tmp_path, bad):
        forged = journal_format.forge(2, [5, 6, 7], counts=[1, bad, 2])
        with pytest.raises(CheckpointError, match="count below 1"):
            _recover(tmp_path / "d", RECORDS[0].bytes + forged)

    def test_the_key_zero_raises(self, tmp_path):
        forged = journal_format.forge(2, [5, 0, 7])
        with pytest.raises(CheckpointError, match="key 0"):
            _recover(tmp_path / "d", RECORDS[0].bytes + forged)

    def test_a_seq_gap_raises(self, tmp_path):
        blob = RECORDS[0].bytes + RECORDS[2].bytes
        with pytest.raises(CheckpointError, match="gap"):
            _recover(tmp_path / "d", blob)

    def test_a_json_line_after_binary_records_raises(self, tmp_path):
        line = journal_format.json_line(4, [(1, 1), (2, 1)])
        with pytest.raises(CheckpointError, match="impossible record header"):
            _recover(tmp_path / "d", JOURNAL + line)
        with pytest.raises(CheckpointError, match="does not start"):
            _recover(tmp_path / "e", JOURNAL + line[:10])


@st.composite
def damaged(draw):
    """The journal, truncated and/or with a few bytes XORed."""
    blob = bytearray(JOURNAL)
    for _flip in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(blob) - 1))
        blob[at] ^= draw(st.integers(1, 255))
    cut = draw(st.one_of(st.none(), st.integers(0, len(blob))))
    return bytes(blob if cut is None else blob[:cut])


@settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(blob=damaged())
def test_damage_recovers_a_prefix_or_raises_typed(blob):
    with tempfile.TemporaryDirectory() as directory:
        try:
            ingestor, peak = _recover(Path(directory) / "d", blob)
        except CheckpointError:
            return
        assert _bounded(peak, blob)
        records = ingestor.applied_seq
        assert ingestor.items_ingested == records * CHUNK
        assert ingestor.sketch.to_state() == PREFIX_STATES[records]
        kept = (Path(directory) / "d" / JOURNAL_FILENAME).read_bytes()
        assert kept == JOURNAL[: RECORDS[records - 1].end if records else 0]
        ingestor.close()
