"""Cross-build pins: the serialized state of fixed-seed sketches.

A sketch serialized by one build must merge with, subtract from and
decode against the same sketch built by any later build.  That holds
only while every hash salt, sign family and counter update stays the
same, and no other test notices a changed salt: a rebuilt sketch is
still self-consistent, just incompatible with every stored one.  These
digests were recorded from a build known to be correct; a refactor of
the substrates must leave them unchanged.
"""

import hashlib
import json

from repro.core import DaVinciConfig, DaVinciSketch, difference, to_state, union
from repro.sketches import FermatSketch, TowerSketch
from repro.workloads.zipf import zipf_trace

STREAM = zipf_trace(200_000, 20_000, 1.1, seed=11)
PREFIX = 5_000


def _digest(payload: object) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _davinci() -> DaVinciSketch:
    return DaVinciSketch(DaVinciConfig.from_memory_kb(64, seed=5))


def _pinned_states():
    bulk = _davinci()
    bulk.insert_all(STREAM)
    per_item = _davinci()
    for key in STREAM[:PREFIX]:
        per_item.insert(key)
    delta = difference(bulk, per_item)
    return {
        "insert_all": to_state(bulk),
        "per_item_prefix": to_state(per_item),
        "union": to_state(union(bulk, per_item)),
        "difference": to_state(delta),
        "decodes": [_decoded(bulk), _decoded(delta)],
    }


def _decoded(sketch: DaVinciSketch) -> object:
    result = sketch.decode_result()
    return [result.complete, result.residual_buckets, sorted(result.counts.items())]


DAVINCI_DIGESTS = {
    "insert_all": (
        "6bcf07cbb4cd87985976108a85e969e0"
        "d7d7a27d6d9498b3a8dc7323ebdb758a"
    ),
    "per_item_prefix": (
        "0d6b1a6bee97d6f581d79682acd4b05a"
        "9c78b8ec3e3426f4d92e590daf4aad3b"
    ),
    "union": (
        "a09aeab3036cb2e8dcbd6f241e7254a6"
        "a5f2be012151d0beb4f79b72df4b4e64"
    ),
    "difference": (
        "183b949753bb9912260816de008c3be2"
        "5d4165399902b5855b9225159bce3b5e"
    ),
    "decodes": (
        "173bae18b53f70e17bfd5680efbd5dcf"
        "11c93f100f2e930c81516be293819b1e"
    ),
}

FERMAT_DIGEST = (
    "23343531fa8d627cea25b1f21ac17c87"
    "1ebfcf38a42b22bba230eada12e5038b"
)
TOWER_DIGEST = (
    "48ba8fb297465e9c48fb2c0dfaddc975"
    "099c7ed628692b009de1369a3713b0e7"
)


def test_davinci_states_match_recorded_build():
    digests = {name: _digest(state) for name, state in _pinned_states().items()}
    assert digests == DAVINCI_DIGESTS


def test_fermat_state_matches_recorded_build():
    a = FermatSketch(rows=3, width=512, seed=4)
    b = FermatSketch(rows=3, width=512, seed=4)
    for key in STREAM[:3_000]:
        a.insert(key)
    for key in STREAM[1_000:4_000]:
        b.insert(key, 2)
    payload = {
        name: [
            sorted(sketch.decode().items()),
            sketch.ids.tolist(),
            sketch.counts.tolist(),
        ]
        for name, sketch in (
            ("a", a),
            ("union", a.merge(b)),
            ("delta", a.subtract(b)),
        )
    }
    assert _digest(payload) == FERMAT_DIGEST


def test_tower_state_matches_recorded_build():
    tower = TowerSketch((4096, 1024), (8, 16), seed=6)
    for key in STREAM[:20_000]:
        tower.insert(key)
    assert _digest([list(level) for level in tower.levels]) == TOWER_DIGEST
