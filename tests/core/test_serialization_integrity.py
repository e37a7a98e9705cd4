"""Integrity layer: digests, corruption taxonomy, config hardening.

Acceptance property: any single bit-flip or truncation of a wire-v3 blob
or a version-2 JSON blob raises :class:`StateCorruptionError` — it must
never load as a plausible-but-wrong sketch.  A v3 blob whose digest is
valid but whose content is impossible is corruption too.  Version-1
blobs (no digest) still load, with an explicit
:class:`UnverifiedStateWarning`.
"""

from __future__ import annotations

import json
import tracemalloc
import warnings
from dataclasses import dataclass
from typing import Any, Callable, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import (
    ConfigurationError,
    ReproError,
    StateCorruptionError,
    UnverifiedStateWarning,
)
from repro.core import serialization
from repro.core.config import DaVinciConfig
from repro.core.davinci import DaVinciSketch
from repro.core.serialization import (
    _CONFIG_FIELDS,
    _WIRE_HEADER,
    _raw_digest,
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


@pytest.fixture
def sparse(small_config) -> DaVinciSketch:
    """A sketch with partly filled FP buckets (room for padding forgeries)."""
    sketch = DaVinciSketch(small_config)
    for key in range(1, 21):
        sketch.insert(key, 3)
    return sketch


def _blob(sketch, fmt, algo="sha256") -> bytes:
    """The sketch as a wire-v3 blob or as a version-2 JSON blob."""
    if fmt == "v3":
        return to_wire(sketch, digest_algo=algo)
    return json.dumps(to_state(sketch, algo)).encode("utf-8")


def _resign(blob: bytes) -> bytes:
    """Replace a sha256-signed v3 blob's digest with a fresh one."""
    body = blob[:-32]
    return body + _raw_digest(body, "sha256")


def _forge(record, sections=(b"", b"", b""), version=3) -> bytes:
    """A signed v3 blob with an arbitrary record and section payloads."""
    raw_record = json.dumps(record).encode("utf-8")
    header = _WIRE_HEADER.pack(
        serialization.WIRE_MAGIC,
        version,
        0,
        len(raw_record),
        *(len(section) for section in sections),
    )
    body = header + raw_record + b"".join(sections)
    return body + _raw_digest(body, "sha256")


class TestBitFlipSweep:
    @pytest.mark.parametrize("fmt", ["v3", "v2"])
    @pytest.mark.parametrize("algo", ["sha256", "crc32"])
    def test_every_sampled_bitflip_is_caught(self, populated, algo, fmt):
        blob = _blob(populated, fmt, algo)
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
        for fmt in ("v3", "v2"):
            blob = _blob(populated, fmt)
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
        """Re-encoding a v2 state with different JSON whitespace stays
        verifiable."""
        pretty = json.dumps(to_state(populated), indent=2, sort_keys=False).encode()
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
    """Impossible-but-well-formed values are corruption, not config errors.

    Each case here is a row of :data:`FORGERIES`, audited through
    ``verify_state`` on the forged v2 state dict.
    """

    def _rejects(self, sketch, case):
        forgery = FORGERIES[case]
        state = _forged_state(_forgery_base(sketch, forgery), forgery)
        with pytest.raises(StateCorruptionError, match=forgery.match):
            verify_state(state)

    def test_fp_key_outside_domain(self, sparse):
        self._rejects(sparse, "fp_key_outside_domain")

    def test_fp_count_above_stream_total(self, sparse):
        self._rejects(sparse, "fp_count_above_stream_total")

    def test_negative_bucket_ecnt(self, sparse):
        self._rejects(sparse, "negative_bucket_ecnt")

    def test_ef_counter_above_bit_cap(self, sparse):
        self._rejects(sparse, "ef_counter_above_bit_cap")

    def test_negative_ef_counter_outside_signed_mode(self, sparse):
        self._rejects(sparse, "negative_ef_counter_outside_signed_mode")

    def test_ifp_residue_outside_field(self, sparse):
        self._rejects(sparse, "ifp_residue_outside_field")

    def test_ifp_count_above_stream_total(self, sparse):
        self._rejects(sparse, "ifp_count_above_stream_total")

    @pytest.mark.parametrize("field", ["count", "ecnt", "total_count"])
    def test_signed_values_outside_int64(self, sparse, field):
        # a signed sketch bounds no count by its total; int64 still does
        self._rejects(sparse, f"signed_{field}_outside_int64")

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


class TestJsonBucketFlags:
    """A JSON bucket flag is checked like the v3 one, never coerced."""

    def _bucket_flag(self, sketch, flag):
        state = to_state(sketch)
        if flag is None:
            del state["frequent_part"][0]["flag"]
        else:
            state["frequent_part"][0]["flag"] = flag
        return json.dumps(sign_state(state)).encode("utf-8")

    def test_missing_bucket_flag_is_malformed(self, populated):
        with pytest.raises(ConfigurationError, match="flag") as info:
            from_wire(self._bucket_flag(populated, None))
        assert type(info.value) is ConfigurationError

    @pytest.mark.parametrize("flag", [7, [1], "1", 1.0])
    def test_bucket_flag_outside_zero_one_is_corruption(self, populated, flag):
        with pytest.raises(StateCorruptionError, match="bucket flag"):
            from_wire(self._bucket_flag(populated, flag))

    @pytest.mark.parametrize("flag", [0, 1, False, True])
    def test_zero_one_flags_load(self, populated, flag):
        sketch = from_wire(self._bucket_flag(populated, flag))
        assert sketch.fp.bucket_states()[0]["flag"] is bool(flag)


def _partly_filled(sketch):
    """The FP views and a bucket holding at least one, not all, entries."""
    views = sketch.fp.bucket_arrays()
    occupancy = views[3]
    bucket = next(
        b for b, used in enumerate(occupancy) if 0 < used < sketch.fp.entries_per_bucket
    )
    return views, bucket


@dataclass(frozen=True)
class Forgery:
    """One impossible value: where it goes, what it is, what the loaders
    must say, and which encodings can carry it.

    ``target`` is ``("entry", column)`` for the first entry of a partly
    filled bucket (column 0 key, 1 count, 2 flag), ``("padding", column)``
    for that bucket's last, empty slot, ``("bucket", field)``,
    ``("ef",)`` for the first level-0 counter, ``("ifp", "ids"|"counts")``
    for the first bucket, or ``("total",)``.  ``signed`` forges a
    difference sketch.
    """

    target: Tuple[Any, ...]
    value: Callable[[DaVinciSketch], int]
    match: str
    v2: bool = True
    v3: bool = True
    signed: bool = False


_BUCKET_VIEWS = {"occupancy": 3, "ecnt": 4, "flag": 5}


def _forgery_base(sketch, forgery):
    if forgery.signed:
        return sketch.difference(DaVinciSketch(sketch.config))
    return sketch


def _forged_state(sketch, forgery):
    """The forgery as a re-signed version-2 state dict."""
    _views, bucket = _partly_filled(sketch)
    state = to_state(sketch)
    kind, *where = forgery.target
    value = forgery.value(sketch)
    if kind == "entry":
        state["frequent_part"][bucket]["entries"][0][where[0]] = value
    elif kind == "bucket":
        state["frequent_part"][bucket][where[0]] = value
    elif kind == "ef":
        state["element_filter"][0][0] = value
    elif kind == "ifp":
        state["infrequent_part"][where[0]][0][0] = value
    else:
        state["total_count"] = value
    return sign_state(state)


def _forged_wire(sketch, forgery):
    """The forgery written into a copy of ``sketch`` and signed by to_wire."""
    sketch = from_wire(to_wire(sketch))
    views, bucket = _partly_filled(sketch)
    kind, *where = forgery.target
    value = forgery.value(sketch)
    if kind == "entry":
        views[where[0]][bucket, 0] = value
    elif kind == "padding":
        views[where[0]][bucket, -1] = value
    elif kind == "bucket":
        views[_BUCKET_VIEWS[where[0]]][bucket] = value
    elif kind == "ef":
        sketch.ef.levels[0][0] = value
    elif kind == "ifp":
        getattr(sketch.ifp, where[0])[0][0] = value
    else:
        sketch.total_count = value
    return to_wire(sketch)


#: the one forged-value table: each value is written under a valid digest
#: into a v3 blob and, where JSON can express it, a v2 JSON blob, and both
#: must fail alike.  JSON has no padding slots or occupancy; v3's int64
#: buffers cannot hold an FP count or ecnt beyond int64.
FORGERIES = {
    "fp_key_outside_domain": Forgery(("entry", 0), lambda s: 0, "domain"),
    "fp_count_above_stream_total": Forgery(
        ("entry", 1), lambda s: s.total_count + 1, "impossible"
    ),
    "negative_bucket_ecnt": Forgery(("bucket", "ecnt"), lambda s: -1, "negative"),
    "ef_counter_above_bit_cap": Forgery(
        ("ef",), lambda s: s.ef.level_caps[0] + 1, "range"
    ),
    "negative_ef_counter_outside_signed_mode": Forgery(
        ("ef",), lambda s: -1, "range"
    ),
    "ifp_residue_outside_field": Forgery(
        ("ifp", "ids"), lambda s: s.config.prime, "field"
    ),
    "ifp_count_above_stream_total": Forgery(
        ("ifp", "counts"), lambda s: s.total_count + 1, "exceeds"
    ),
    "padding_key": Forgery(("padding", 0), lambda s: 5, "padding", v2=False),
    "padding_count": Forgery(("padding", 1), lambda s: 1, "padding", v2=False),
    "padding_flag": Forgery(("padding", 2), lambda s: 1, "padding", v2=False),
    "entry_flag_not_boolean": Forgery(("entry", 2), lambda s: 2, "flag"),
    "bucket_flag_not_boolean": Forgery(("bucket", "flag"), lambda s: 2, "flag"),
    "occupancy_above_capacity": Forgery(
        ("bucket", "occupancy"),
        lambda s: s.fp.entries_per_bucket + 1,
        "occupancy",
        v2=False,
    ),
    "negative_occupancy": Forgery(
        ("bucket", "occupancy"), lambda s: -1, "occupancy", v2=False
    ),
    "signed_count_outside_int64": Forgery(
        ("entry", 1), lambda s: 2**63, "int64", v3=False, signed=True
    ),
    "signed_ecnt_outside_int64": Forgery(
        ("bucket", "ecnt"), lambda s: 2**63, "int64", v3=False, signed=True
    ),
    "signed_total_count_outside_int64": Forgery(
        ("total",), lambda s: -(2**63) - 1, "int64", signed=True
    ),
}


class TestForgedWireV3:
    """A blob with a valid digest and one impossible value is corruption,
    with the same error from a v3 blob and a v2 JSON blob."""

    @pytest.mark.parametrize("case", sorted(FORGERIES))
    def test_forged_value_is_corruption(self, sparse, case):
        forgery = FORGERIES[case]
        base = _forgery_base(sparse, forgery)
        from_wire(to_wire(base))  # intact: loads
        blobs = []
        if forgery.v3:
            blobs.append(_forged_wire(base, forgery))
        if forgery.v2:
            state = _forged_state(base, forgery)
            blobs.append(json.dumps(state).encode("utf-8"))
        errors = set()
        for blob in blobs:
            with pytest.raises(StateCorruptionError, match=forgery.match) as info:
                from_wire(blob)
            errors.add((type(info.value), str(info.value)))
        assert len(errors) == 1, errors

    def test_digest_mismatch_is_corruption(self, populated):
        """The v3 counterpart of a state whose digest does not verify."""
        blob = bytearray(to_wire(populated))
        blob[-1] ^= 0x01
        with pytest.raises(StateCorruptionError, match="digest"):
            from_wire(bytes(blob))
        with pytest.raises(ConfigurationError):  # the catch contract
            from_wire(bytes(blob))


class TestHostileBlobs:
    def test_config_larger_than_payload_is_rejected_before_allocation(
        self, populated
    ):
        record = {
            "config": dict(to_state(populated)["config"], fp_buckets=2**30),
            "mode": "standard",
            "total_count": 0,
        }
        blob = _forge(record, (b"\0" * 480, b"\0" * 160, b"\0" * 96))
        assert len(blob) < 1100
        tracemalloc.start()
        try:
            with pytest.raises(StateCorruptionError, match="implies"):
                from_wire(blob)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * len(blob)

    def test_json_state_declaring_a_huge_fp_is_rejected(self, populated):
        """A v2 JSON blob lists no FP capacity; a forged one stays cheap."""
        state = to_state(populated)
        state["config"]["fp_entries"] = 2**40
        blob = json.dumps(sign_state(state)).encode("utf-8")
        with pytest.raises(StateCorruptionError, match="too large"):
            from_wire(blob)

    def test_json_state_declaring_huge_ifp_rows_is_a_typed_error(
        self, populated
    ):
        state = to_state(populated)
        state["config"]["ifp_rows"] = 2**70
        blob = json.dumps(sign_state(state)).encode("utf-8")
        with pytest.raises(ConfigurationError, match="infrequent"):
            from_wire(blob)

    def test_section_lengths_must_match_the_payload(self, populated):
        blob = bytearray(to_wire(populated))
        _WIRE_HEADER.pack_into(
            blob, 0, *(_WIRE_HEADER.unpack_from(blob)[:-1]), 2**40
        )
        with pytest.raises(StateCorruptionError, match="lengths"):
            from_wire(_resign(bytes(blob)))

    def test_unknown_version_with_valid_digest_names_the_version(self):
        with pytest.raises(ConfigurationError, match="version 9"):
            from_wire(_forge({}, version=9))

    def test_non_mapping_record_is_corruption(self):
        with pytest.raises(StateCorruptionError, match="mapping"):
            from_wire(_forge([1, 2, 3]))

    def test_unknown_digest_algorithm_is_corruption(self, populated):
        blob = bytearray(to_wire(populated))
        blob[5] = 7
        with pytest.raises(StateCorruptionError, match="algorithm"):
            from_wire(bytes(blob))

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_resigned_byte_mutations_raise_only_typed_errors(self, data):
        """Any body edit under a valid digest loads or raises a ReproError."""
        blob = bytearray(to_wire(_tiny_sketch()))
        body_len = len(blob) - 32
        for _ in range(data.draw(st.integers(1, 4))):
            at = data.draw(st.integers(0, body_len - 1))
            blob[at] = data.draw(st.integers(0, 255))
        try:
            from_wire(_resign(bytes(blob)))
        except ReproError:
            pass


    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_resigned_json_value_edits_raise_only_typed_errors(self, data):
        """Any value edit of a re-signed v2 JSON state loads or raises a
        ReproError."""
        state = to_state(_tiny_sketch())
        del state["digest"]
        for _ in range(data.draw(st.integers(1, 3))):
            path = data.draw(st.sampled_from(list(_json_paths(state))))
            parent = state
            for step in path[:-1]:
                parent = parent[step]
            if isinstance(parent, dict) and data.draw(st.booleans()):
                del parent[path[-1]]
            else:
                parent[path[-1]] = data.draw(_JSON_VALUES)
        try:
            from_wire(json.dumps(sign_state(state)).encode("utf-8"))
        except ReproError:
            pass


def _tiny_sketch() -> DaVinciSketch:
    """A sketch small enough to fuzz, with every part populated."""
    config = DaVinciConfig(
        fp_buckets=4,
        fp_entries=2,
        ef_level_widths=(16, 8),
        ef_level_bits=(4, 8),
        ifp_rows=2,
        ifp_width=4,
        filter_threshold=10,
    )
    sketch = DaVinciSketch(config)
    sketch.insert_all([1, 2, 2, 3, 3, 3] * 5 + list(range(4, 40)))
    return sketch


def _json_paths(node, path=()):
    """The key/index path of every value below ``node``."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield path + (key,)
        if isinstance(value, (dict, list)):
            yield from _json_paths(value, path + (key,))


#: replacement values: scalars across the int64 edges and of every JSON
#: type, and small containers of them
_JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(2**65), 2**65)
    | st.sampled_from([0, 1, -1, 2, 2**31, 2**32, 2**63 - 1, 2**63, -(2**63)])
    | st.floats(allow_nan=False)
    | st.text(max_size=3),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=3), children, max_size=3),
    max_leaves=4,
)


class TestWireV3Exactness:
    """No sketch holds a value wire v3's int64 arrays cannot carry, so
    to_wire never truncates: the IFP tables refuse it first."""

    def test_ifp_count_outside_int64(self, populated):
        delta = populated.difference(DaVinciSketch(populated.config))
        blob = to_wire(delta)
        full = delta.ifp.empty_like()
        full.counts[0, 0] = 2**63 - 1
        with pytest.raises(ConfigurationError, match="int64"):
            delta.ifp.merged(full).merged(full)
        assert to_wire(delta) == blob
        state = to_state(delta)
        state["infrequent_part"]["counts"][0][0] = 2**63
        with pytest.raises(StateCorruptionError, match="int64"):
            from_state(sign_state(state))

    def test_prime_at_or_above_two_to_the_63(self, small_config):
        prime = 2**63 + 29  # the least prime above 2^63
        config = DaVinciConfig(**{**small_config.__dict__, "prime": prime})
        with pytest.raises(ConfigurationError, match="prime"):
            DaVinciSketch(config)


#: the path of every mapping key in a populated state; the keys of a
#: list's items are read off its first item
STATE_KEYS = [
    path
    for path in _json_paths(to_state(_tiny_sketch()))
    if isinstance(path[-1], str)
    and all(step == 0 for step in path if isinstance(step, int))
]


class TestStateKeySymmetry:
    """Every key ``to_state`` writes is one ``from_state`` needs: a state
    missing it, re-signed, is rejected with a typed error."""

    @pytest.mark.parametrize(
        "path", STATE_KEYS, ids=lambda path: "/".join(map(str, path))
    )
    def test_state_missing_a_written_key_is_rejected(self, path):
        state = to_state(_tiny_sketch())
        parent = state
        for step in path[:-1]:
            parent = parent[step]
        del parent[path[-1]]
        if path[0] != "digest":  # re-signing would restore the digest
            sign_state(state)
        with pytest.raises(ReproError):
            from_state(state)
