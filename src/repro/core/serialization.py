"""Serialization of DaVinci sketches: the state dict and the wire blob.

The distributed-aggregation use case (paper Algorithm 3) ships sketches
between measurement points and a collector.  Two encodings exist:

* :func:`to_state` — a nested dict of ints/lists/strings (state
  **version 2**) that round-trips through ``json`` without loss.  It is
  the debugging view and what the golden digests pin.
* :func:`to_wire` — a binary **wire v3** blob, what every push, fetch,
  shard hand-off and checkpoint carries.  :func:`from_wire` reads v3,
  and v2/v1 states sent as JSON bytes (first byte ``{``).

Both embed the full :class:`~repro.core.config.DaVinciConfig`, so a
deserialized sketch is merge-compatible with the original — same shapes,
same hash seeds.

    state = sketch.to_state()          # or serialization.to_state(sketch)
    twin  = DaVinciSketch.from_state(json.loads(json.dumps(state)))
    twin  = from_wire(to_wire(sketch))

Wire v3 layout
--------------
Little-endian throughout; ``k × c`` FP slots, ``d × w`` IFP buckets:

=========  ==========================================================
section    contents
=========  ==========================================================
header     ``b"DVSK"``, version (u8, 3), digest algorithm (u8: 0
           sha256, 1 crc32), then u32 record length and u64 lengths of
           the FP, EF and IFP sections
record     compact JSON ``{"config", "mode", "total_count"}``
FP         the six int64 buffers of
           :meth:`~repro.core.frequent_part.FrequentPart.bucket_arrays`:
           keys, counts, flags (``k·c`` each), occupancy, ``ecnt``,
           bucket flag (``k`` each)
EF         each level in the narrowest signed dtype holding ±its cap
           (int8 for 2/4-bit, int16 for 8-bit, int32 for 16-bit, int64
           for 32-bit levels)
IFP        ``ids`` then ``counts``, ``d·w`` int64 each (the tables as
           the sketch holds them)
digest     sha256 (32 bytes) or crc32 (4 bytes) of every byte before it
=========  ==========================================================

:func:`to_wire` never truncates: every value it writes is one the sketch
already holds in an int64 array.

Integrity
---------
A single flipped counter or truncated upload would silently corrupt all
nine query tasks.  Version-2 states embed a digest over the canonical
JSON encoding of the payload::

    "digest": {"algo": "sha256", "value": "<hex>"}

and a v3 blob ends with a digest over its raw bytes.  Failures fall into
three classes:

* **malformed** — wrong structure (missing/mistyped fields, shape
  mismatches) → :class:`~repro.common.errors.ConfigurationError`;
* **corrupted** — digest mismatch, a version-2 state missing its
  mandatory digest, a v3 blob whose config disagrees with its payload,
  or deep-validation failures (see :func:`verify_state`) →
  :class:`~repro.common.errors.StateCorruptionError`;
* **incompatible** — a version this build cannot read →
  :class:`~repro.common.errors.ConfigurationError` naming the version.

Both encodings are checked and built by one code path, over the arrays
a v3 blob carries.  A v3 blob is sliced into them after its digest and
after its declared section lengths are checked against the payload and
the config's shapes, before any sketch is allocated (memory grows with
the payload, not with the declared config).  A v2 state is converted
into them by a JSON layer that checks only structure and types (shapes,
``[key, count, flag]`` triples, integers; a bool only as a flag).  Then
one vectorized range check runs:

* FP: occupancy in ``[0, c]``, padding slots zero, keys in
  ``[1, 2^32)``, an unsigned sketch's counts in ``[0, total_count]``,
  ``ecnt`` in ``[0, 2^63)``, entry and bucket flags in {0, 1};
* EF: an unsigned sketch's level in ``[0, cap]``; a signed sketch's in
  whatever the level's wire dtype holds, since chained differences take
  counters past ``±cap`` (:func:`to_wire` raises beyond that dtype);
* IFP: residues in ``[0, p)``, an unsigned sketch's ``|icnt|`` at most
  ``total_count``, a signed sketch's at most ``2^63 − 1``.

Only then does one builder write the arrays into a new sketch's buffers.

Version-1 states (no digest) still load, with a
:class:`~repro.common.errors.UnverifiedStateWarning` — corruption in them
is undetectable, so re-serialize legacy blobs when you can.  Any single
bit-flip or truncation of a v3 blob or a v2 JSON blob surfaces as
:class:`~repro.common.errors.StateCorruptionError`, never as a
wrong-but-plausible sketch.
"""

from __future__ import annotations

import hashlib
import json
import struct
import warnings
import zlib
from itertools import chain
from typing import Any, Dict, List, Sequence, Tuple, Union

import numpy as np

from repro.common.errors import (
    ConfigurationError,
    StateCorruptionError,
    UnverifiedStateWarning,
)
from repro.common.validation import INT64_MAX, INT64_MIN
from repro.core.config import DaVinciConfig
from repro.core.davinci import MODE_SIGNED, VALID_MODES, DaVinciSketch

#: current state-dict version (emitted by :func:`to_state`)
STATE_VERSION = 2

#: every version :func:`from_state` can still read
READABLE_VERSIONS = (1, 2)

#: wire-blob version emitted by :func:`to_wire`; :func:`from_wire` also
#: reads :data:`READABLE_VERSIONS` states sent as JSON bytes
WIRE_VERSION = 3

#: the first bytes of a wire-v3 blob (a JSON state starts with ``{``)
WIRE_MAGIC = b"DVSK"

#: digest algorithms the integrity layer understands; a v3 header
#: names one by its index here
DIGEST_ALGOS = ("sha256", "crc32")

#: default digest algorithm for new states
DEFAULT_DIGEST_ALGO = "sha256"

#: the sketch's decodable key domain (matches ``InfrequentPart.max_key``)
_MAX_KEY = 1 << 32

#: v3 header: magic, version, digest algorithm, record length, then the
#: FP, EF and IFP section lengths
_WIRE_HEADER = struct.Struct("<4sBBIQQQ")

#: v3 trailing digest size per algorithm
_DIGEST_SIZES = {"sha256": 32, "crc32": 4}

#: the v3 dtype of an EF level by counter bits: the narrowest signed
#: integer holding ±its cap
_EF_WIRE_DTYPES = {
    2: np.dtype("<i1"),
    4: np.dtype("<i1"),
    8: np.dtype("<i2"),
    16: np.dtype("<i4"),
    32: np.dtype("<i8"),
}

_INT64_WIRE = np.dtype("<i8")

#: a JSON state lists every EF counter, IFP bucket and FP bucket, but not
#: the FP's per-bucket capacity, so a small blob could declare a huge
#: ``fp_entries``: :func:`from_wire` refuses FP buffers larger than this
#: multiple of the blob (states :func:`to_state` writes for ``c ≤ 50``
#: stay below it)
_JSON_FP_EXPANSION = 32

#: required config fields and the JSON types they must arrive as
_CONFIG_FIELDS: Tuple[Tuple[str, Tuple[type, ...], str], ...] = (
    ("fp_buckets", (int,), "an integer"),
    ("fp_entries", (int,), "an integer"),
    ("ef_level_widths", (list, tuple), "a list of integers"),
    ("ef_level_bits", (list, tuple), "a list of integers"),
    ("ifp_rows", (int,), "an integer"),
    ("ifp_width", (int,), "an integer"),
    ("lambda_evict", (int, float), "a number"),
    ("filter_threshold", (int,), "an integer"),
    ("prime", (int,), "an integer"),
    ("seed", (int,), "an integer"),
)


def _is_int(value: object) -> bool:
    """A genuine integer (bools are ints in Python, but not on the wire)."""
    return isinstance(value, int) and not isinstance(value, bool)


# --------------------------------------------------------------------- #
# digest layer
# --------------------------------------------------------------------- #
def canonical_payload(state: Dict[str, Any]) -> bytes:
    """The canonical byte encoding the digest is computed over.

    Every field except ``digest`` itself, dumped with sorted keys and
    compact separators — independent of the transport's own formatting.
    """
    payload = {key: value for key, value in state.items() if key != "digest"}
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), ensure_ascii=True
    ).encode("utf-8")


def state_digest(state: Dict[str, Any], algo: str = DEFAULT_DIGEST_ALGO) -> str:
    """Hex digest of a state's canonical payload under ``algo``."""
    if algo not in DIGEST_ALGOS:
        raise ConfigurationError(
            f"unknown digest algorithm {algo!r}; expected one of {DIGEST_ALGOS}"
        )
    payload = canonical_payload(state)
    if algo == "crc32":
        return f"{zlib.crc32(payload) & 0xFFFFFFFF:08x}"
    return hashlib.sha256(payload).hexdigest()


def sign_state(
    state: Dict[str, Any], algo: str = DEFAULT_DIGEST_ALGO
) -> Dict[str, Any]:
    """Embed (or refresh) the integrity digest of ``state`` in place.

    Returns the same dict for chaining.  Tests that deliberately mutate a
    state to exercise the deep validator re-sign it with this, so the
    semantic checks are reached instead of the digest tripping first.
    """
    state["digest"] = {"algo": algo, "value": state_digest(state, algo)}
    return state


def _verify_digest(state: Dict[str, Any]) -> None:
    """Check the embedded digest; raise ``StateCorruptionError`` on mismatch."""
    digest = state["digest"]
    if (
        not isinstance(digest, dict)
        or not isinstance(digest.get("algo"), str)
        or not isinstance(digest.get("value"), str)
    ):
        raise StateCorruptionError(
            "state digest field is not {algo, value} — corrupted or tampered"
        )
    algo = digest["algo"]
    if algo not in DIGEST_ALGOS:
        raise StateCorruptionError(
            f"state carries unknown digest algorithm {algo!r} "
            f"(expected one of {DIGEST_ALGOS}) — corrupted or tampered"
        )
    expected = state_digest(state, algo)
    if digest["value"] != expected:
        raise StateCorruptionError(
            f"state digest mismatch ({algo}): embedded "
            f"{digest['value']!r} != computed {expected!r} — the payload "
            "was corrupted in transit or at rest"
        )


# --------------------------------------------------------------------- #
# capture
# --------------------------------------------------------------------- #
def _config_state(config: DaVinciConfig) -> Dict[str, Any]:
    """The ``config`` mapping both encodings carry."""
    return {
        "fp_buckets": config.fp_buckets,
        "fp_entries": config.fp_entries,
        "ef_level_widths": list(config.ef_level_widths),
        "ef_level_bits": list(config.ef_level_bits),
        "ifp_rows": config.ifp_rows,
        "ifp_width": config.ifp_width,
        "lambda_evict": config.lambda_evict,
        "filter_threshold": config.filter_threshold,
        "prime": config.prime,
        "seed": config.seed,
    }


def to_state(
    sketch: DaVinciSketch, digest_algo: str = DEFAULT_DIGEST_ALGO
) -> Dict[str, Any]:
    """Capture a sketch's complete state as JSON-compatible data.

    Emits state version 2: the payload plus an embedded integrity
    digest (``sha256`` by default; ``crc32`` for checkpoint-rate signing).
    """
    state: Dict[str, Any] = {
        "version": STATE_VERSION,
        "config": _config_state(sketch.config),
        "mode": sketch.mode,
        "total_count": sketch.total_count,
        "frequent_part": sketch.fp.bucket_states(),
        "element_filter": [level.tolist() for level in sketch.ef.levels],
        "infrequent_part": {
            "ids": sketch.ifp.ids.tolist(),
            "counts": sketch.ifp.counts.tolist(),
        },
    }
    return sign_state(state, digest_algo)


def _raw_digest(data: Union[bytes, memoryview], algo: str) -> bytes:
    """The v3 trailing digest of ``data`` under ``algo``."""
    if algo == "crc32":
        return struct.pack("<I", zlib.crc32(data) & 0xFFFFFFFF)
    return hashlib.sha256(data).digest()


def to_wire(
    sketch: DaVinciSketch, digest_algo: str = DEFAULT_DIGEST_ALGO
) -> bytes:
    """Serialize a sketch to a self-verifying wire-v3 blob.

    Raises :class:`~repro.common.errors.ConfigurationError` for an
    unknown ``digest_algo``.  Every array it writes is one the sketch
    holds as int64 (an IFP refuses a prime ``≥ 2^63`` at construction),
    so nothing is ever truncated.
    """
    if digest_algo not in DIGEST_ALGOS:
        raise ConfigurationError(
            f"unknown digest algorithm {digest_algo!r}; expected one of "
            f"{DIGEST_ALGOS}"
        )
    config = sketch.config
    record = json.dumps(
        {
            "config": _config_state(config),
            "mode": sketch.mode,
            "total_count": sketch.total_count,
        },
        separators=(",", ":"),
    ).encode("utf-8")
    fp = b"".join(
        view.astype(_INT64_WIRE, copy=False).tobytes()
        for view in sketch.fp.bucket_arrays()
    )
    ef_levels = []
    for index, (level, bits) in enumerate(
        zip(sketch.ef.counter_arrays(), config.ef_level_bits)
    ):
        dtype = _EF_WIRE_DTYPES[bits]
        limits = np.iinfo(dtype)
        if int(level.min()) < limits.min or int(level.max()) > limits.max:
            raise ConfigurationError(
                f"element-filter level {index} holds a counter outside "
                f"{dtype.name}; wire v3 cannot carry it exactly"
            )
        ef_levels.append(level.astype(dtype).tobytes())
    ef = b"".join(ef_levels)
    ifp = np.stack((sketch.ifp.ids, sketch.ifp.counts)).astype(_INT64_WIRE).tobytes()
    header = _WIRE_HEADER.pack(
        WIRE_MAGIC,
        WIRE_VERSION,
        DIGEST_ALGOS.index(digest_algo),
        len(record),
        len(fp),
        len(ef),
        len(ifp),
    )
    body = b"".join((header, record, fp, ef, ifp))
    return body + _raw_digest(body, digest_algo)


# --------------------------------------------------------------------- #
# parsing: config and header (both encodings)
# --------------------------------------------------------------------- #
def _check_config_fields(raw: object) -> Dict[str, Any]:
    """Check a raw ``config`` mapping's fields are present and typed."""
    if not isinstance(raw, dict):
        raise ConfigurationError(
            f"config must be a mapping, got {type(raw).__name__}"
        )
    for name, types, described in _CONFIG_FIELDS:
        if name not in raw:
            raise ConfigurationError(
                f"config is missing required field {name!r}"
            )
        value = raw[name]
        if isinstance(value, bool) or not isinstance(value, types):
            raise ConfigurationError(
                f"config field {name!r} must be {described}, "
                f"got {type(value).__name__} ({value!r})"
            )
    for name in ("ef_level_widths", "ef_level_bits"):
        for element in raw[name]:
            if not _is_int(element):
                raise ConfigurationError(
                    f"config field {name!r} must contain only integers, "
                    f"got {type(element).__name__} ({element!r})"
                )
    return raw


def _parse_config(fields: Dict[str, Any]) -> DaVinciConfig:
    """Build the config from :func:`_check_config_fields` output."""
    # semantic validation (positivity, primality, level shapes) happens in
    # DaVinciConfig.__post_init__ and also raises ConfigurationError
    return DaVinciConfig(
        fp_buckets=fields["fp_buckets"],
        fp_entries=fields["fp_entries"],
        ef_level_widths=tuple(fields["ef_level_widths"]),
        ef_level_bits=tuple(fields["ef_level_bits"]),
        ifp_rows=fields["ifp_rows"],
        ifp_width=fields["ifp_width"],
        lambda_evict=fields["lambda_evict"],
        filter_threshold=fields["filter_threshold"],
        prime=fields["prime"],
        seed=fields["seed"],
    )


def _parse_header(mode: Any, total_count: Any) -> Tuple[str, bool, int]:
    """Check ``mode`` and ``total_count``; return ``(mode, signed, total)``."""
    if mode not in VALID_MODES:
        raise ConfigurationError(
            f"unknown sketch mode {mode!r}; expected one of {VALID_MODES} "
            "(an unvalidated mode would silently fall through query "
            "dispatch to the standard path)"
        )
    signed = mode == MODE_SIGNED
    if not _is_int(total_count):
        raise ConfigurationError(
            f"total_count must be an integer, got {total_count!r}"
        )
    if total_count < 0 and not signed:
        raise StateCorruptionError(
            f"negative total_count {total_count} is only meaningful for "
            "signed (difference) sketches"
        )
    if not INT64_MIN <= total_count <= INT64_MAX:
        raise StateCorruptionError(
            f"total_count {total_count} outside int64 — counter corruption"
        )
    return mode, signed, total_count


# --------------------------------------------------------------------- #
# the one check and the one build, over the wire-v3 arrays
# --------------------------------------------------------------------- #
#: a sketch's content as the arrays wire v3 carries: the six FP buffers
#: of :meth:`~repro.core.frequent_part.FrequentPart.bucket_arrays` (entry
#: buffers shaped ``(k, c)``), one array per EF level, and the IFP
#: ``(ids, counts)`` shaped ``(d, w)``
Sections = Tuple[Tuple[Any, ...], List[Any], Tuple[Any, Any]]


def _check_range(values: Any, low: int, high: int, message: str) -> None:
    """Raise ``StateCorruptionError`` unless every value lies in
    ``[low, high]``; ``message`` formats the offending ``{value}``."""
    if values.size:
        smallest, largest = int(values.min()), int(values.max())
        if smallest < low or largest > high:
            bad = smallest if smallest < low else largest
            raise StateCorruptionError(
                message.format(value=bad) + " — counter corruption"
            )


def _check_sections(
    config: DaVinciConfig, signed: bool, total: int, sections: Sections
) -> None:
    """Raise ``StateCorruptionError`` for any value a sketch cannot hold.

    The one range check both encodings pass; vectorized, so it costs no
    per-element Python work.
    """
    (keys, counts, flags, occupancy, ecnt, bucket_flag), levels, ifp = sections
    c = config.fp_entries
    bound = max(total, 0)
    _check_range(
        occupancy, 0, c, f"frequent-part occupancy {{value}} outside [0, {c}]"
    )
    resident = np.arange(c) < occupancy[:, None]
    padding = ~resident
    if keys[padding].any() or counts[padding].any() or flags[padding].any():
        raise StateCorruptionError(
            "frequent-part padding slot holds a nonzero value — counter "
            "corruption"
        )
    _check_range(
        keys[resident],
        1,
        _MAX_KEY - 1,
        f"FP entry key {{value}} outside the decodable domain [1, {_MAX_KEY})",
    )
    if not signed:
        _check_range(
            counts[resident],
            0,
            bound,
            "FP entry count {value} impossible for an unsigned sketch with "
            f"total_count {total}",
        )
    _check_range(flags, 0, 1, "FP entry flag {value} is not 0 or 1")
    _check_range(
        bucket_flag, 0, 1, "frequent-part bucket flag {value} is not 0 or 1"
    )
    _check_range(ecnt, 0, INT64_MAX, "frequent-part ecnt {value} is negative")

    for index, (level, bits) in enumerate(zip(levels, config.ef_level_bits)):
        if signed:
            # differences may push a counter past ±cap (a chained
            # difference does); accept what the level's wire dtype holds
            limits = np.iinfo(_EF_WIRE_DTYPES[bits])
            low, high = int(limits.min), int(limits.max)
        else:
            low, high = 0, (1 << bits) - 1
        _check_range(
            level,
            low,
            high,
            f"element-filter level {index} counter {{value}} outside its "
            f"{bits}-bit level's range [{low}, {high}]",
        )

    ids, icnt = ifp
    _check_range(
        ids,
        0,
        config.prime - 1,
        "infrequent-part iID residue {value} outside the field "
        f"[0, {config.prime})",
    )
    icnt_bound = INT64_MAX if signed else bound
    _check_range(
        icnt,
        -icnt_bound,
        icnt_bound,
        f"infrequent-part icnt {{value}} exceeds ±{icnt_bound} (the stream "
        f"total {total}, or the table's range for a signed sketch)",
    )


def _build(
    config: DaVinciConfig, mode: str, total: int, sections: Sections
) -> DaVinciSketch:
    """The sketch holding checked ``sections``, written into its buffers."""
    fp, levels, (ids, icnt) = sections
    sketch = DaVinciSketch(config)
    sketch.mode = mode
    sketch.total_count = total
    for view, section in zip(sketch.fp.bucket_arrays(), fp):
        view[...] = section
    for view, level in zip(sketch.ef.counter_arrays(), levels):
        view[...] = level
    sketch.ifp.ids[...] = ids
    sketch.ifp.counts[...] = icnt
    return sketch


# --------------------------------------------------------------------- #
# the JSON state: structure and types, then arrays
# --------------------------------------------------------------------- #
def _int_array(values: Sequence[Any], what: str, flags: bool = False) -> Any:
    """``values`` as an int64 array.

    A non-integer is malformed (``ConfigurationError``); a bool counts as
    one, except among ``flags``, where any non-integer is an impossible
    flag.  A value int64 cannot hold is corruption.
    """
    for kind in set(map(type, values)):
        if issubclass(kind, int) and (flags or kind is not bool):
            continue
        bad = next(value for value in values if type(value) is kind)
        message = f"{what} holds non-integer {bad!r}"
        if flags:
            raise StateCorruptionError(message + " — counter corruption")
        raise ConfigurationError(message)
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        raise StateCorruptionError(
            f"{what} holds a value outside int64 — counter corruption"
        ) from None


def _json_frequent_part(section: Any, config: DaVinciConfig) -> Tuple[Any, ...]:
    """The FP buffers of a ``frequent_part`` section."""
    k, c = config.fp_buckets, config.fp_entries
    if not isinstance(section, list) or len(section) != k:
        raise ConfigurationError("frequent-part state does not match config")
    entries: List[Any] = []
    for index, bucket in enumerate(section):
        if (
            not isinstance(bucket, dict)
            or not {"entries", "ecnt", "flag"} <= bucket.keys()
            or not isinstance(bucket["entries"], list)
        ):
            raise ConfigurationError(
                f"frequent-part bucket {index} must map 'entries' (a list), "
                "'ecnt' and 'flag'"
            )
        if len(bucket["entries"]) > c:
            raise ConfigurationError("bucket state exceeds entry capacity")
        entries += bucket["entries"]
    if not all(
        isinstance(entry, (list, tuple)) and len(entry) == 3 for entry in entries
    ):
        raise ConfigurationError("FP entries must be [key, count, flag]")
    occupancy = np.array([len(bucket["entries"]) for bucket in section])
    resident = np.arange(c) < occupancy[:, None]
    columns = []
    for values, what in zip(
        zip(*entries) if entries else ((), (), ()),
        ("FP entry key", "FP entry count", "FP entry flag"),
    ):
        column = np.zeros((k, c), dtype=np.int64)
        column[resident] = _int_array(values, what, flags=what.endswith("flag"))
        columns.append(column)
    return (
        *columns,
        occupancy.astype(np.int64),
        _int_array([bucket["ecnt"] for bucket in section], "frequent-part ecnt"),
        _int_array(
            [bucket["flag"] for bucket in section],
            "frequent-part bucket flag",
            flags=True,
        ),
    )


def _json_sections(state: Dict[str, Any], config: DaVinciConfig) -> Sections:
    """A JSON state's sections as arrays, structure and types checked."""
    fp = _json_frequent_part(state["frequent_part"], config)
    levels = state["element_filter"]
    if not isinstance(levels, list) or [
        len(level) if isinstance(level, list) else -1 for level in levels
    ] != list(config.ef_level_widths):
        raise ConfigurationError("element-filter state does not match config")
    ef = [
        _int_array(level, f"element-filter level {index}")
        for index, level in enumerate(levels)
    ]
    ifp_state = state["infrequent_part"]
    if not isinstance(ifp_state, dict):
        raise ConfigurationError("infrequent-part state must be a mapping")
    d, w = config.ifp_rows, config.ifp_width
    ifp = []
    for field in ("ids", "counts"):
        rows = ifp_state.get(field)
        if (
            not isinstance(rows, list)
            or len(rows) != d
            or any(not isinstance(row, list) or len(row) != w for row in rows)
        ):
            raise ConfigurationError("infrequent-part state does not match config")
        flat = list(chain.from_iterable(rows))
        ifp.append(_int_array(flat, f"infrequent-part {field}"))
    return fp, ef, (ifp[0].reshape(d, w), ifp[1].reshape(d, w))


def _verified(state: Dict[str, Any]) -> Tuple[DaVinciConfig, str, int, Sections]:
    """:func:`verify_state`'s checks; returns what :func:`_build` takes."""
    if not isinstance(state, dict) or "config" not in state:
        raise ConfigurationError("not a DaVinci sketch state")
    version = state.get("version")
    if version not in READABLE_VERSIONS:
        raise ConfigurationError(
            f"unsupported state version {version!r} "
            f"(this build reads versions {READABLE_VERSIONS})"
        )
    for field in ("frequent_part", "element_filter", "infrequent_part"):
        if field not in state:
            raise ConfigurationError(f"state is missing its {field!r} section")

    config = _parse_config(_check_config_fields(state["config"]))
    mode, signed, total = _parse_header(
        state.get("mode"), state.get("total_count")
    )
    sections = _json_sections(state, config)
    _check_sections(config, signed, total, sections)
    return config, mode, total, sections


def verify_state(state: Dict[str, Any]) -> DaVinciConfig:
    """Deep-validate a parsed state dict; return its parsed config.

    Checks everything :func:`from_state` relies on *beyond* the digest:
    config field presence/types, mode/total_count consistency, the
    sections' shapes and types, then the same range check a wire-v3 blob
    passes (see the module docstring).

    Raises :class:`~repro.common.errors.ConfigurationError` for malformed
    payloads and :class:`~repro.common.errors.StateCorruptionError` for
    well-formed payloads holding impossible values.  Does **not** verify
    the digest — :func:`from_state` does that first; call this directly
    to audit states from trusted transports (e.g. checkpoint recovery).
    """
    return _verified(state)[0]


# --------------------------------------------------------------------- #
# rebuild
# --------------------------------------------------------------------- #
def from_state(state: Dict[str, Any]) -> DaVinciSketch:
    """Rebuild a sketch from :func:`to_state` output.

    Order of defenses (see the module docstring's taxonomy):

    1. the embedded digest, when present, is verified **first** — before
       any structural interpretation, so corruption can never masquerade
       as a merely-malformed or merely-incompatible state;
    2. a version-2 state *without* a digest is itself corruption (v2
       always embeds one);  version-1 states load with an
       :class:`~repro.common.errors.UnverifiedStateWarning`;
    3. :func:`verify_state`'s checks;
    4. only then is the sketch built.
    """
    if not isinstance(state, dict):
        raise ConfigurationError("not a DaVinci sketch state")
    if "digest" in state:
        _verify_digest(state)
    elif state.get("version") == 1:
        warnings.warn(
            "loading a version-1 DaVinci state without integrity "
            "protection; corruption is undetectable — re-serialize with "
            "to_state() to upgrade",
            UnverifiedStateWarning,
            stacklevel=2,
        )
    elif state.get("version") in READABLE_VERSIONS:
        raise StateCorruptionError(
            "version-2 state is missing its mandatory integrity digest — "
            "truncated or tampered payload"
        )
    return _build(*_verified(state))


def _section_lengths(raw: Dict[str, Any]) -> Tuple[int, int, int]:
    """The FP, EF and IFP section lengths a typed raw config implies."""
    ef = 0
    for width, bits in zip(raw["ef_level_widths"], raw["ef_level_bits"]):
        if bits not in _EF_WIRE_DTYPES:
            raise ConfigurationError(
                f"ef counter bits must be one of {sorted(_EF_WIRE_DTYPES)}, "
                f"got {bits}"
            )
        ef += width * _EF_WIRE_DTYPES[bits].itemsize
    fp = 3 * 8 * raw["fp_buckets"] * (raw["fp_entries"] + 1)
    return fp, ef, 16 * raw["ifp_rows"] * raw["ifp_width"]


def _from_wire_v3(data: bytes) -> DaVinciSketch:
    """Verify and rebuild a wire-v3 blob (order: module docstring)."""
    if len(data) < _WIRE_HEADER.size:
        raise StateCorruptionError(
            "wire-v3 blob is shorter than its header — truncated"
        )
    _magic, version, algo_index, *lengths = _WIRE_HEADER.unpack_from(data)
    if algo_index >= len(DIGEST_ALGOS):
        raise StateCorruptionError(
            f"wire-v3 blob names unknown digest algorithm {algo_index} — "
            "corrupted or tampered"
        )
    algo = DIGEST_ALGOS[algo_index]
    body_len = len(data) - _DIGEST_SIZES[algo]
    body = memoryview(data)[:body_len]
    if (
        body_len < _WIRE_HEADER.size
        or _raw_digest(body, algo) != data[body_len:]
    ):
        raise StateCorruptionError(
            f"wire-v3 digest mismatch ({algo}) — the blob was corrupted "
            "in transit or at rest"
        )
    if version != WIRE_VERSION:
        raise ConfigurationError(
            f"unsupported wire version {version} (this build writes "
            f"version {WIRE_VERSION})"
        )
    record_len, *section_lens = lengths
    if _WIRE_HEADER.size + sum(lengths) != body_len:
        raise StateCorruptionError(
            "wire-v3 section lengths disagree with the payload length"
        )

    offset = _WIRE_HEADER.size + record_len
    try:
        record = json.loads(bytes(body[_WIRE_HEADER.size : offset]))
    except (ValueError, RecursionError) as exc:
        raise StateCorruptionError(
            f"wire-v3 config record is not decodable JSON ({exc})"
        ) from exc
    if not isinstance(record, dict) or "config" not in record:
        raise StateCorruptionError("wire-v3 config record is not a mapping")
    raw = _check_config_fields(record["config"])
    expected = _section_lengths(raw)
    if list(expected) != section_lens:
        raise StateCorruptionError(
            f"wire-v3 config implies sections of {list(expected)} bytes but "
            f"the blob carries {section_lens}"
        )
    config = _parse_config(raw)
    mode, signed, total = _parse_header(
        record.get("mode"), record.get("total_count")
    )

    k, c = config.fp_buckets, config.fp_entries
    fp = np.frombuffer(data, _INT64_WIRE, 3 * k * (c + 1), offset)
    offset += fp.nbytes
    buffers = np.split(fp, np.cumsum([k * c, k * c, k * c, k, k]))
    entry_buffers = (part.reshape(k, c) for part in buffers[:3])
    levels = []
    for width, bits in zip(config.ef_level_widths, config.ef_level_bits):
        levels.append(np.frombuffer(data, _EF_WIRE_DTYPES[bits], width, offset))
        offset += levels[-1].nbytes
    d, w = config.ifp_rows, config.ifp_width
    ids, icnt = np.frombuffer(data, _INT64_WIRE, 2 * d * w, offset).reshape(2, d, w)

    sections: Sections = ((*entry_buffers, *buffers[3:]), levels, (ids, icnt))
    _check_sections(config, signed, total, sections)
    return _build(config, mode, total, sections)


def from_wire(blob: Union[bytes, bytearray, memoryview]) -> DaVinciSketch:
    """Rebuild a sketch from :func:`to_wire` bytes (or a v1/v2 JSON state).

    Undecodable bytes (truncation, flipped bits) raise
    :class:`~repro.common.errors.StateCorruptionError` — a wire blob is
    self-described as a signed state, so *any* parse failure is evidence
    of corruption rather than a caller-side type mistake.
    """
    data = bytes(blob)
    if data[: len(WIRE_MAGIC)] == WIRE_MAGIC:
        return _from_wire_v3(data)
    try:
        state = json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise StateCorruptionError(
            f"state blob is neither wire v3 nor decodable JSON ({exc}) — "
            "truncated or corrupted in transit"
        ) from exc
    if not isinstance(state, dict):
        raise StateCorruptionError(
            "state blob decoded to a non-mapping — corrupted in transit"
        )
    config = state.get("config")
    if isinstance(config, dict):
        buckets, entries = config.get("fp_buckets"), config.get("fp_entries")
        if (
            _is_int(buckets)
            and _is_int(entries)
            and 24 * buckets * (entries + 1) > _JSON_FP_EXPANSION * len(data)
        ):
            raise StateCorruptionError(
                f"JSON state declares a {buckets}×{entries} frequent part, "
                f"too large for its {len(data)}-byte blob — forged or corrupted"
            )
    return from_state(state)


__all__: List[str] = [
    "STATE_VERSION",
    "READABLE_VERSIONS",
    "WIRE_VERSION",
    "WIRE_MAGIC",
    "DIGEST_ALGOS",
    "DEFAULT_DIGEST_ALGO",
    "canonical_payload",
    "state_digest",
    "sign_state",
    "to_state",
    "to_wire",
    "verify_state",
    "from_state",
    "from_wire",
]
