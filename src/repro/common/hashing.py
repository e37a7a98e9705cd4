"""Seeded 64-bit hash families.

The paper's C++ prototype uses Bob Jenkins' hash; any family of fast,
well-mixed, independently seeded hash functions is equivalent for the
accuracy results (only uniformity and seed-independence matter).  We use a
splitmix64-style finalizer, which passes the usual avalanche tests, is a
handful of arithmetic operations in pure Python, and is deterministic
across processes (unlike Python's builtin ``hash``).

Four callables cover every need in the package:

* :func:`hash64` — raw 64-bit hash of an integer key under a seed.
* :func:`canonical_key` — the sketch's identity of any key: an int in
  ``[1, 2^32)`` or a fingerprint into that domain.
* :class:`HashFamily` — ``d`` independent functions mapping keys to
  ``[0, width)`` bucket indices.
* :class:`SignFamily` — ``d`` independent ±1 sign functions (the ζ/φ
  functions of the paper's Algorithm 2 and Lemma 1).

The hash families have numpy batch forms equal to them key for key
(:meth:`HashFamily.index_arrays`, :meth:`SignFamily.sign_arrays`), which
the bulk paths use.
"""

from __future__ import annotations

import random
from typing import Any, Iterable, List, NoReturn, Optional, Sequence, Union

import numpy

from repro.common.errors import ConfigurationError

#: module-level alias typed ``Any`` (numpy's own annotations are not part
#: of the strict typing gate)
np: Any = numpy

_MASK64 = (1 << 64) - 1

# splitmix64 constants (Steele, Lea & Flood; also used by xoshiro seeding).
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def mix64(x: int) -> int:
    """Finalize a 64-bit value with the splitmix64 avalanche function."""
    x &= _MASK64
    x = ((x ^ (x >> 30)) * _MIX1) & _MASK64
    x = ((x ^ (x >> 27)) * _MIX2) & _MASK64
    return x ^ (x >> 31)


def hash64(key: int, seed: int = 0) -> int:
    """Return a 64-bit hash of integer ``key`` under ``seed``.

    Distinct seeds give (empirically) independent functions; the same
    ``(key, seed)`` pair always hashes identically, which the invertible
    sketches rely on for re-hash validation during decoding.
    """
    return mix64((key & _MASK64) ^ mix64(seed * _GAMMA + _GAMMA))


#: start value of a byte-string fingerprint (the FNV-1 offset basis)
FNV_OFFSET = 0xCBF29CE484222325

#: integer keys in ``[1, CANONICAL_DOMAIN)`` are canonical as they are:
#: the infrequent part's decodable 32-bit key space
CANONICAL_DOMAIN = 1 << 32

#: seed of the hash that fingerprints every other key into that domain
CANONICAL_SEED = 0x5EEDF00D


def reject_key(key: object) -> NoReturn:
    """Raise the error for a key that is neither an int, ``str`` nor bytes."""
    if isinstance(key, bool):  # bool is an int subclass; reject explicitly
        raise ConfigurationError("boolean keys are ambiguous; use 0/1 ints")
    raise ConfigurationError(f"unsupported key type: {type(key).__name__}")


def encode_text(key: str) -> bytes:
    """A ``str`` key's UTF-8 bytes; one UTF-8 cannot encode (a lone
    surrogate such as ``"\\ud800"``) raises ``ConfigurationError``."""
    try:
        return key.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise ConfigurationError(
            f"str key {key[:40]!r} is not encodable as UTF-8 "
            f"({exc.reason} at index {exc.start})"
        ) from None


def check_texts(keys: Iterable[object]) -> None:
    """Raise :func:`encode_text`'s error for the first ``str`` in ``keys``
    that UTF-8 cannot encode (the batch paths' error branch)."""
    for key in keys:
        if isinstance(key, str):
            encode_text(key)


def key_to_int(key: object) -> int:
    """Canonicalize a sketch key to a non-negative integer.

    Integers pass through (taken modulo 2^64 so negative IDs behave);
    ``bytes``/``str`` keys are fingerprinted to 64 bits, mirroring the
    paper's treatment of long variable-length keys ("we first hash the key
    into a fixed-length fingerprint").
    """
    if isinstance(key, int) and not isinstance(key, bool):
        return key & _MASK64
    if isinstance(key, str):
        key = encode_text(key)
    if isinstance(key, (bytes, bytearray)):
        acc = FNV_OFFSET
        for byte in key:
            acc = mix64(acc ^ byte)
        return acc
    reject_key(key)


def canonical_key(key: object) -> int:
    """Map any key into the sketch's decodable domain ``[1, 2^32)``.

    Integer keys already in the domain pass through unchanged.  Anything
    else — strings, bytes, zero, negative or oversized ints — is
    deterministically fingerprinted into it.  Sketches, the shard router
    and queries all use this one mapping, so they agree on key identity;
    :func:`repro.core.kernel.canonical_keys` is its batch form.
    """
    if (
        isinstance(key, int)
        and not isinstance(key, bool)
        and 1 <= key < CANONICAL_DOMAIN
    ):
        return key
    return hash64(key_to_int(key), CANONICAL_SEED) % (CANONICAL_DOMAIN - 1) + 1


def _premix(seed: int) -> int:
    """The cached inner mix of ``hash64``: ``mix64(seed·γ + γ)``."""
    return mix64(seed * _GAMMA + _GAMMA)


def _finalize(x: Any) -> Any:
    """The splitmix64 avalanche over a uint64 array (wraps mod 2^64)."""
    x = (x ^ (x >> np.uint64(30))) * np.uint64(_MIX1)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(_MIX2)
    return x ^ (x >> np.uint64(31))


def hash_mod(keys_u64: Any, premix: int, width: int) -> Any:
    """``hash64(key, seed) % width`` over a uint64 key array (int64 out).

    ``hash64(key, seed) == mix64(key ^ premix)`` with ``premix`` the
    seed's cached inner mix (:func:`_premix`), so only the splitmix64
    finalizer runs per key.
    """
    mixed = _finalize(keys_u64 ^ np.uint64(premix))
    return (mixed % np.uint64(width)).astype(np.int64)


def signs_of(keys_u64: Any, premix: int) -> Any:
    """``SignFamily`` ±1 signs over a uint64 key array (int64 out)."""
    bits = _finalize(keys_u64 ^ np.uint64(premix)) & np.uint64(1)
    return bits.astype(np.int64) * 2 - 1


class HashFamily:
    """``rows`` independent hash functions onto ``[0, width)``.

    Each row may have its own width (the TowerSketch's levels differ in
    length), supplied either as a single int or a per-row sequence.

    The per-row seed mixing of :func:`hash64` is precomputed at
    construction and the finalizer is inlined in :meth:`index` /
    :meth:`indexes` — these run on every insertion of every sketch, so the
    call overhead matters.  The produced indexes are identical to
    ``hash64(key, seed_row) % width``.
    """

    __slots__ = ("rows", "widths", "_seeds", "_premixed")

    def __init__(
        self, rows: int, width: Union[int, Sequence[int]], seed: int = 1
    ) -> None:
        if rows <= 0:
            raise ConfigurationError("hash family needs at least one row")
        if isinstance(width, int):
            widths: List[int] = [width] * rows
        else:
            widths = list(width)
            if len(widths) != rows:
                raise ConfigurationError(
                    f"expected {rows} widths, got {len(widths)}"
                )
        if any(w <= 0 for w in widths):
            raise ConfigurationError("all row widths must be positive")
        self.rows = rows
        self.widths = widths
        # Decorrelate rows by hashing (seed, row) into per-row seeds.
        self._seeds = [hash64(row + 1, seed) for row in range(rows)]
        # hash64(key, s) == mix64(key ^ mix64(s·γ + γ)); cache the inner mix
        self._premixed = [_premix(s) for s in self._seeds]

    def index(self, row: int, key: int) -> int:
        """Bucket index of ``key`` in ``row``."""
        x = (key & _MASK64) ^ self._premixed[row]
        x = ((x ^ (x >> 30)) * _MIX1) & _MASK64
        x = ((x ^ (x >> 27)) * _MIX2) & _MASK64
        return (x ^ (x >> 31)) % self.widths[row]

    def indexes(self, key: int) -> List[int]:
        """Bucket index of ``key`` in every row."""
        key &= _MASK64
        out = []
        for premixed, width in zip(self._premixed, self.widths):
            x = key ^ premixed
            x = ((x ^ (x >> 30)) * _MIX1) & _MASK64
            x = ((x ^ (x >> 27)) * _MIX2) & _MASK64
            out.append((x ^ (x >> 31)) % width)
        return out

    def index_arrays(self, keys: Any) -> List[Any]:
        """:meth:`index` of every key of an int64 array, one int64 array
        per row."""
        keys_u64 = keys.astype(np.uint64)
        return [
            hash_mod(keys_u64, premixed, width)
            for premixed, width in zip(self._premixed, self.widths)
        ]


class SignFamily:
    """``rows`` independent ±1 sign functions (ζᵢ in the paper)."""

    __slots__ = ("rows", "_seeds", "_premixed")

    def __init__(self, rows: int, seed: int = 2) -> None:
        if rows <= 0:
            raise ConfigurationError("sign family needs at least one row")
        self.rows = rows
        self._seeds = [hash64(row + 1, seed ^ 0xA5A5A5A5) for row in range(rows)]
        self._premixed = [_premix(s) for s in self._seeds]

    def sign(self, row: int, key: int) -> int:
        """Return +1 or -1 for ``key`` in ``row``."""
        return 1 if hash64(key, self._seeds[row]) & 1 else -1

    def signs(self, key: int) -> List[int]:
        """Signs of ``key`` for every row."""
        return [1 if hash64(key, s) & 1 else -1 for s in self._seeds]

    def sign_arrays(self, keys: Any) -> List[Any]:
        """:meth:`sign` of every key of an int64 array, one int64 array
        per row."""
        keys_u64 = keys.astype(np.uint64)
        return [signs_of(keys_u64, premixed) for premixed in self._premixed]


def fingerprint(key: int, bits: int, seed: int = 77) -> int:
    """A ``bits``-wide fingerprint of ``key`` (used by FlowRadar/HashPipe)."""
    if not 1 <= bits <= 64:
        raise ConfigurationError("fingerprint width must be in [1, 64]")
    return hash64(key, seed) >> (64 - bits)


def spread_seeds(seed: int, count: int) -> List[int]:
    """Derive ``count`` decorrelated sub-seeds from one master seed.

    Used when one sketch owns several internal structures (e.g. CSOA's three
    constituent sketches, UnivMon's levels) that must not share hash
    functions.
    """
    return [hash64(i + 1, seed ^ 0x5EED5EED) for i in range(count)]


def resolve_rng(seed: int, rng: Optional[random.Random] = None) -> random.Random:
    """The package's one RNG-injection point.

    Randomized sketches (Coco's probabilistic replacement, HeavyKeeper's
    exponential decay) accept an optional injected generator for tests and
    otherwise derive a private :class:`random.Random` from their own seed.
    Centralizing the idiom guarantees that

    * no sketch ever touches the *global* ``random`` module state (runs
      stay reproducible regardless of import order or other libraries;
      ``tests/analysis/test_source_rules.py`` rejects any such draw), and
    * the fallback generator is always explicitly seeded, with the seed
      mixed through :func:`mix64` so that sketches constructed with
      adjacent seeds do not produce correlated draw sequences.
    """
    if rng is not None:
        return rng
    return random.Random(mix64(seed))
