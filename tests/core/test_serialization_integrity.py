"""Integrity layer: digests, corruption taxonomy, config hardening.

Acceptance property: any single bit-flip or truncation of a version-2
wire blob raises :class:`StateCorruptionError` — it must never load as a
plausible-but-wrong sketch.  Version-1 blobs (no digest) still load,
with an explicit :class:`UnverifiedStateWarning`.
"""

from __future__ import annotations

import json
import warnings

import pytest

from repro.common.errors import (
    ConfigurationError,
    StateCorruptionError,
    UnverifiedStateWarning,
)
from repro.core import serialization
from repro.core.davinci import DaVinciSketch
from repro.core.serialization import (
    _CONFIG_FIELDS,
    from_state,
    from_wire,
    sign_state,
    state_digest,
    to_state,
    to_wire,
    verify_state,
)
from repro.testing import flip_bit, truncate


@pytest.fixture
def populated(small_config) -> DaVinciSketch:
    sketch = DaVinciSketch(small_config)
    for key in range(1, 150):
        sketch.insert(key, 1 + key % 30)
    return sketch


class TestBitFlipSweep:
    @pytest.mark.parametrize("algo", ["sha256", "crc32"])
    def test_every_sampled_bitflip_is_caught(self, populated, algo):
        blob = to_wire(populated, digest_algo=algo)
        total_bits = 8 * len(blob)
        step = max(1, total_bits // 97)  # ~97 positions spread over the blob
        positions = list(range(0, total_bits, step))
        positions += [0, 7, total_bits - 1, total_bits // 2]
        for bit in sorted(set(positions)):
            with pytest.raises(StateCorruptionError):
                from_wire(flip_bit(blob, bit))

    def test_intact_blob_loads(self, populated):
        twin = from_wire(to_wire(populated))
        assert twin.to_state() == populated.to_state()

    def test_flip_then_restore_loads(self, populated):
        blob = to_wire(populated)
        assert from_wire(flip_bit(flip_bit(blob, 1234), 1234)).total_count == (
            populated.total_count
        )


class TestTruncationSweep:
    def test_every_sampled_truncation_is_caught(self, populated):
        blob = to_wire(populated)
        lengths = {0, 1, 2, len(blob) // 4, len(blob) // 2, len(blob) - 1}
        for length in sorted(lengths):
            with pytest.raises(StateCorruptionError):
                from_wire(truncate(blob, length))

    def test_non_json_bytes_are_corruption(self):
        with pytest.raises(StateCorruptionError):
            from_wire(b"\xff\xfe not json")
        with pytest.raises(StateCorruptionError):
            from_wire(b"[1, 2, 3]")  # valid JSON, wrong shape


class TestDigestTaxonomy:
    def test_v2_without_digest_is_corruption(self, populated):
        state = to_state(populated)
        del state["digest"]
        with pytest.raises(StateCorruptionError, match="digest"):
            from_state(state)

    def test_tampered_payload_is_corruption(self, populated):
        state = to_state(populated)
        state["total_count"] += 1
        with pytest.raises(StateCorruptionError, match="mismatch"):
            from_state(state)

    def test_malformed_digest_field_is_corruption(self, populated):
        state = to_state(populated)
        state["digest"] = "deadbeef"
        with pytest.raises(StateCorruptionError):
            from_state(state)

    def test_unknown_digest_algo_is_corruption(self, populated):
        state = to_state(populated)
        state["digest"] = {"algo": "md5", "value": "00"}
        with pytest.raises(StateCorruptionError, match="algorithm"):
            from_state(state)

    def test_state_digest_rejects_unknown_algo(self, populated):
        with pytest.raises(ConfigurationError):
            state_digest(to_state(populated), algo="md5")

    def test_crc32_roundtrip(self, populated):
        twin = from_wire(to_wire(populated, digest_algo="crc32"))
        assert twin.to_state() == populated.to_state()

    def test_digest_ignores_transport_formatting(self, populated):
        """Re-encoding with different JSON whitespace stays verifiable."""
        pretty = json.dumps(
            json.loads(to_wire(populated)), indent=2, sort_keys=False
        ).encode()
        assert from_wire(pretty).to_state() == populated.to_state()


class TestLegacyVersion1:
    def _v1_state(self, sketch):
        state = to_state(sketch)
        del state["digest"]
        state["version"] = 1
        return state

    def test_v1_loads_with_unverified_warning(self, populated):
        state = self._v1_state(populated)
        with pytest.warns(UnverifiedStateWarning, match="re-serialize"):
            twin = from_state(state)
        assert twin.total_count == populated.total_count
        for key in (1, 50, 149):
            assert twin.query(key) == populated.query(key)

    def test_v2_roundtrip_is_warning_free(self, populated):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            from_state(to_state(populated))

    def test_v1_reserialized_upgrades_to_v2(self, populated):
        with pytest.warns(UnverifiedStateWarning):
            twin = from_state(self._v1_state(populated))
        upgraded = to_state(twin)
        assert upgraded["version"] == serialization.STATE_VERSION
        assert "digest" in upgraded

    def test_unreadable_version_names_the_version(self, populated):
        state = self._v1_state(populated)
        state["version"] = 99
        with pytest.raises(ConfigurationError, match="99"):
            from_state(state)


class TestConfigHardening:
    """Satellite (a): malformed config payloads name the offending field."""

    @pytest.mark.parametrize(
        "field", [name for name, _types, _desc in _CONFIG_FIELDS]
    )
    def test_missing_field_is_named(self, populated, field):
        state = to_state(populated)
        del state["config"][field]
        with pytest.raises(ConfigurationError, match=field):
            from_state(sign_state(state))

    @pytest.mark.parametrize(
        "field", [name for name, _types, _desc in _CONFIG_FIELDS]
    )
    def test_mistyped_field_is_named(self, populated, field):
        state = to_state(populated)
        state["config"][field] = "not-a-number"
        with pytest.raises(ConfigurationError, match=field):
            from_state(sign_state(state))

    @pytest.mark.parametrize("field", ["ef_level_widths", "ef_level_bits"])
    def test_non_integer_level_entries_are_named(self, populated, field):
        state = to_state(populated)
        state["config"][field] = list(state["config"][field])
        state["config"][field][0] = "wide"
        with pytest.raises(ConfigurationError, match=field):
            from_state(sign_state(state))

    def test_boolean_masquerading_as_int_is_rejected(self, populated):
        state = to_state(populated)
        state["config"]["fp_buckets"] = True
        with pytest.raises(ConfigurationError, match="fp_buckets"):
            from_state(sign_state(state))

    def test_non_mapping_config_is_rejected(self, populated):
        state = to_state(populated)
        state["config"] = [1, 2, 3]
        with pytest.raises(ConfigurationError, match="mapping"):
            from_state(sign_state(state))


class TestDeepValidation:
    """Impossible-but-well-formed values are corruption, not config errors."""

    def _mutated(self, populated, mutate):
        state = to_state(populated)
        mutate(state)
        return sign_state(state)

    def test_fp_key_outside_domain(self, populated):
        def mutate(state):
            for bucket in state["frequent_part"]:
                if bucket["entries"]:
                    bucket["entries"][0][0] = 0
                    return

        with pytest.raises(StateCorruptionError, match="domain"):
            from_state(self._mutated(populated, mutate))

    def test_fp_count_above_stream_total(self, populated):
        def mutate(state):
            for bucket in state["frequent_part"]:
                if bucket["entries"]:
                    bucket["entries"][0][1] = state["total_count"] + 1
                    return

        with pytest.raises(StateCorruptionError, match="impossible"):
            from_state(self._mutated(populated, mutate))

    def test_negative_bucket_ecnt(self, populated):
        def mutate(state):
            state["frequent_part"][0]["ecnt"] = -1

        with pytest.raises(StateCorruptionError, match="negative"):
            from_state(self._mutated(populated, mutate))

    def test_ef_counter_above_bit_cap(self, populated, small_config):
        cap = (1 << small_config.ef_level_bits[0]) - 1

        def mutate(state):
            state["element_filter"][0][0] = cap + 1

        with pytest.raises(StateCorruptionError, match="range"):
            from_state(self._mutated(populated, mutate))

    def test_negative_ef_counter_outside_signed_mode(self, populated):
        def mutate(state):
            state["element_filter"][0][0] = -1

        with pytest.raises(StateCorruptionError, match="range"):
            from_state(self._mutated(populated, mutate))

    def test_ifp_residue_outside_field(self, populated, small_config):
        def mutate(state):
            state["infrequent_part"]["ids"][0][0] = small_config.prime

        with pytest.raises(StateCorruptionError, match="field"):
            from_state(self._mutated(populated, mutate))

    def test_ifp_count_above_stream_total(self, populated):
        def mutate(state):
            state["infrequent_part"]["counts"][0][0] = (
                state["total_count"] + 1
            )

        with pytest.raises(StateCorruptionError, match="exceeds"):
            from_state(self._mutated(populated, mutate))

    @pytest.mark.parametrize("field", ["count", "ecnt", "total_count"])
    def test_signed_values_outside_int64(self, populated, field):
        # a signed sketch bounds no count by its total; int64 still does
        delta = populated.difference(DaVinciSketch(populated.config))
        state = to_state(delta)
        bucket = next(b for b in state["frequent_part"] if b["entries"])
        if field == "count":
            bucket["entries"][0][1] = 2**63
        elif field == "ecnt":
            bucket["ecnt"] = 2**63
        else:
            state["total_count"] = -(2**63) - 1
        blob = json.dumps(sign_state(state)).encode("utf-8")
        with pytest.raises(StateCorruptionError, match="int64"):
            from_wire(blob)

    def test_verify_state_skips_digest(self, populated):
        """verify_state audits structure only; from_state owns the digest."""
        state = to_state(populated)
        state["digest"]["value"] = "0" * 64
        config = verify_state(state)  # does not raise
        assert config == populated.config
        with pytest.raises(StateCorruptionError):
            from_state(state)

    def test_corruption_is_still_a_configuration_error(self, populated):
        """Catch-contract: StateCorruptionError extends ConfigurationError."""
        state = to_state(populated)
        state["total_count"] += 1
        with pytest.raises(ConfigurationError):
            from_state(state)
