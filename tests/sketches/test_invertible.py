"""Unit tests for the invertible sketches: Fermat, FlowRadar, LossRadar."""

from collections import Counter

import pytest

from repro.common.errors import ConfigurationError
from repro.common.primes import SMALL_PRIME
from repro.sketches import FermatSketch, FlowRadar, LossRadar
from tests.substrate_contracts import FermatDecodeContract, FermatLinearityContract


class TestFermatSketch(FermatDecodeContract, FermatLinearityContract):
    cls = FermatSketch

    def test_query_via_decode(self):
        fermat = FermatSketch(rows=3, width=64, seed=1)
        fermat.insert(42, 9)
        assert fermat.query(42) == 9
        assert fermat.query(43) == 0

    def test_decode_cache_invalidated(self):
        fermat = FermatSketch(rows=3, width=64, seed=1)
        fermat.insert(1, 2)
        assert fermat.decode() == {1: 2}
        fermat.insert(2, 3)
        assert fermat.decode() == {1: 2, 2: 3}

    def test_overload_fails_gracefully(self):
        fermat = FermatSketch(rows=3, width=8, seed=1)
        for key in range(500, 600):
            fermat.insert(key)
        decoded = fermat.decode()
        assert len(decoded) < 100  # partial or empty, never wrong keys
        # The 32-bit key-domain check keeps false pure-bucket decodes out.
        for key in decoded:
            assert 500 <= key < 600

    def test_merge_is_union(self):
        a = FermatSketch(rows=3, width=64, seed=1)
        b = FermatSketch(rows=3, width=64, seed=1)
        a.insert(1, 2)
        b.insert(1, 3)
        b.insert(9, 1)
        assert a.merge(b).decode() == {1: 5, 9: 1}

    def test_subtract_is_signed_difference(self):
        a = FermatSketch(rows=3, width=64, seed=1)
        b = FermatSketch(rows=3, width=64, seed=1)
        a.insert(1, 5)
        a.insert(2, 2)
        b.insert(1, 7)
        b.insert(2, 2)
        assert a.subtract(b).decode() == {1: -2}

    def test_key_domain_must_fit_field(self):
        with pytest.raises(ConfigurationError):
            FermatSketch(rows=3, width=64, prime=SMALL_PRIME)


class TestFlowRadar:
    def test_roundtrip(self):
        radar = FlowRadar(cells=128, filter_bits=1024, seed=1)
        truth = {key: key % 3 + 1 for key in range(50, 80)}
        assert truth
        for key, count in truth.items():
            for _ in range(count):
                radar.insert(key)
        assert radar.decode() == truth

    def test_nested_difference_decodes_losses(self):
        """The packet-loss scenario: downstream misses some packets."""
        upstream = FlowRadar(cells=256, filter_bits=2048, seed=2)
        downstream = FlowRadar(cells=256, filter_bits=2048, seed=2)
        sent = [key for key in range(1, 101) for _ in range(3)]
        lost = set(range(10, 101, 10))  # flows losing one packet each
        for key in sent:
            upstream.insert(key)
        dropped = dict.fromkeys(lost, 1)
        for key in sent:
            if dropped.get(key):
                dropped[key] = 0
                continue
            downstream.insert(key)
        delta = upstream.subtract(downstream)
        decoded = delta.decode()
        # The documented FlowRadar caveat: a flow present in BOTH sketches
        # cancels its ID fields entirely, so its per-packet delta is
        # stranded (undecodable) rather than attributed — decode returns
        # nothing here, but no *wrong* flows either.
        assert all(1 <= key < 100 for key in decoded)
        # the stranded packet deltas are still in the cells: each lost
        # packet was recorded at num_hashes cells of the upstream meter
        stranded_packets = sum(cell.packet_count for cell in delta.cells)
        assert stranded_packets == delta.num_hashes * len(lost)

    def test_memory_model(self):
        radar = FlowRadar(cells=100, filter_bits=800, seed=1)
        assert radar.memory_bytes() == 100 * 12.0 + 100


class TestLossRadar:
    def test_roundtrip_with_duplicates(self):
        radar = LossRadar(cells=128, seed=1)
        stream = [7] * 5 + [8] * 2 + [9]
        radar.insert_all(stream)
        assert radar.decode() == dict(Counter(stream))

    def test_difference_of_meters(self):
        before = LossRadar(cells=256, seed=2)
        after = LossRadar(cells=256, seed=2)
        sent = [key for key in range(1, 201) for _ in range(2)]
        before.insert_all(sent)
        after.insert_all(sent[10:])  # first 10 packets lost
        decoded = before.subtract(after).decode()
        assert decoded == dict(Counter(sent[:10]))

    def test_negative_side_of_difference(self):
        a = LossRadar(cells=128, seed=3)
        b = LossRadar(cells=128, seed=3)
        b.insert_all([55] * 4)
        assert a.subtract(b).decode() == {55: -4}

    def test_overload_partial_decode(self):
        radar = LossRadar(cells=16, seed=4)
        radar.insert_all(range(1000, 1100))
        decoded = radar.decode()
        for key in decoded:
            assert 1000 <= key < 1100

    def test_merge(self):
        a = LossRadar(cells=128, seed=5)
        b = LossRadar(cells=128, seed=5)
        a.insert(1, 2)
        b.insert(1, 3)
        assert a.merge(b).decode() == {1: 5}
