"""Prime-field arithmetic for the Fermat-encoded sketches.

The infrequent part (and the standalone FermatSketch baseline) encode flow
IDs as residues modulo a prime ``p`` and invert counters with Fermat's
little theorem: for a prime ``p`` and ``a ≢ 0 (mod p)``,
``a^(p-2) · a ≡ 1 (mod p)``.

The default modulus is the Mersenne prime ``2^61 − 1``: large enough that
64-bit fingerprints truncated into the field collide negligibly, and a
Mersenne prime keeps Python's ``pow`` fast.

:func:`add_mod_at` is the field sum the bucket tables use, exact for
every prime up to :data:`MAX_ARRAY_PRIME`, with no step specific to one
prime.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, List, Sequence

from repro.common.errors import ConfigurationError
from repro.common.hashing import np

#: Default field modulus — the Mersenne prime 2^61 − 1.
DEFAULT_PRIME = (1 << 61) - 1

#: A smaller prime (2^31 − 1) for tests that want tiny fields.
SMALL_PRIME = (1 << 31) - 1

#: The largest modulus whose residues int64 arrays hold: the sum of two
#: residues then stays below 2^64.
MAX_ARRAY_PRIME = (1 << 63) - 1


@lru_cache(maxsize=64)
def is_prime(n: int) -> bool:
    """Deterministic Miller–Rabin for 64-bit-ish inputs.

    The witness set {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37} is proven
    sufficient for all n < 3.3·10^24, far beyond any modulus we use.
    Memoized: every sketch construction validates its (same) modulus.
    """
    if n < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for sp in small:
        if n % sp == 0:
            return n == sp
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for witness in small:
        x = pow(witness, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = (x * x) % n
            if x == n - 1:
                break
        else:
            return False
    return True


def validate_prime(p: int) -> int:
    """Return ``p`` if it is a usable field modulus, else raise."""
    if p < 5:
        raise ConfigurationError("field modulus must be a prime >= 5")
    if not is_prime(p):
        raise ConfigurationError(f"{p} is not prime")
    return p


def mod_inverse(a: int, p: int) -> int:
    """Multiplicative inverse of ``a`` modulo prime ``p`` (Fermat).

    Raises :class:`ConfigurationError` when ``a ≡ 0 (mod p)``, which has no
    inverse — callers treat that as "bucket not decodable".
    """
    a %= p
    if a == 0:
        raise ConfigurationError("zero has no modular inverse")
    # Fermat's little theorem: a^(p-2) ≡ a^(-1) (mod p).
    return pow(a, p - 2, p)


def mod_inverses(values: Sequence[int], p: int) -> List[int]:
    """:func:`mod_inverse` of each of ``values``, with one exponentiation.

    Montgomery's batch inversion: invert the product of all the values
    once, then peel each inverse off the prefix products — three field
    multiplications per value instead of a ``pow`` each.  Raises
    :class:`ConfigurationError` when any value is ``≡ 0 (mod p)``.
    """
    residues = [a % p for a in values]
    if not residues:
        return []
    prefix: List[int] = []
    product = 1
    for a in residues:
        if a == 0:
            raise ConfigurationError("zero has no modular inverse")
        product = product * a % p
        prefix.append(product)
    # the inverse of prefix[i]; each step below moves it to prefix[i - 1]
    inverse = pow(product, p - 2, p)
    out = [0] * len(residues)
    for i in range(len(residues) - 1, 0, -1):
        out[i] = inverse * prefix[i - 1] % p
        inverse = inverse * residues[i] % p
    out[0] = inverse
    return out


def add_mod_at(target: Any, at: Any, residues: Any, p: int) -> None:
    """``target[at] += residues (mod p)`` in place, repeated indexes
    included, over uint64 residues in ``[0, p)``.

    Each index's residues are summed exactly as 32-bit halves (below
    ``2^64`` for fewer than ``2^32`` of them); each touched index's sum
    is then reduced once, in Python ints.
    """
    high = np.zeros(len(target), dtype=np.uint64)
    low = np.zeros(len(target), dtype=np.uint64)
    np.add.at(high, at, residues >> np.uint64(32))
    np.add.at(low, at, residues & np.uint64(0xFFFFFFFF))
    touched = np.flatnonzero(high | low)
    sums = zip(high[touched].tolist(), low[touched].tolist(), target[touched].tolist())
    target[touched] = [((h << 32) + l + t) % p for h, l, t in sums]


def to_field(value: int, p: int) -> int:
    """Map a (possibly negative) integer into ``[0, p)``."""
    return value % p


def from_field_signed(value: int, p: int) -> int:
    """Interpret a field residue as a signed integer in ``(−p/2, p/2]``.

    Difference sketches subtract counters in the field; small negative
    totals wrap to values near ``p`` and this undoes that wrap.
    """
    value %= p
    return value - p if value > p // 2 else value
